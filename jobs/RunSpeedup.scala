package repro.jobs

import repro.baselines.{Dac, GboRl, QTuneRl, Tuneful}
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, Locat, Tuner}

/** spark-submit entrypoint: one cell of the Fig 13/14 speedup comparison —
  * tune a workload at a datasize with LOCAT and the four SOTA baselines and
  * report optimization times and speedups.
  *
  * Usage: RunSpeedup [workload] [datasizeGB] [cluster] [seed]
  */
object RunSpeedup {
  def main(args: Array[String]): Unit = {
    val workloadName = args.lift(0).getOrElse("TPC-H")
    val ds = args.lift(1).map(_.toDouble).getOrElse(300.0)
    val cluster = if (args.lift(2).contains("x86")) ClusterProfile.x86 else ClusterProfile.arm
    val seed = args.lift(3).map(_.toLong).getOrElse(42L)

    val workload = Workloads.byName(workloadName)
    val space = ConfigSpace.full(cluster.armRanges)

    def freshSim = new SparkClusterSimulator(workload, cluster, seed)
    val tuners: Seq[Tuner] =
      Seq(new Locat(), new Tuneful(), new Dac(), GboRl.forCluster(cluster), new QTuneRl())

    val results = tuners.map { t =>
      val sim = freshSim
      val r = t.tune(sim, space, ds, seed)
      val cleanTime = sim.expectedTotal(r.bestConf, ds)
      (t.name, r.optimizationSeconds, cleanTime)
    }
    val locatTime = results.head._3
    val locatOpt = results.head._2
    println(f"workload=$workloadName ds=${ds}%.0fGB cluster=${cluster.name}")
    println(f"${"tuner"}%-10s ${"opt-hours"}%12s ${"best-time(s)"}%14s ${"speedup"}%9s ${"opt-ratio"}%10s")
    results.foreach { case (n, opt, best) =>
      println(f"$n%-10s ${opt / 3600}%12.2f $best%14.1f ${best / locatTime}%9.2f ${opt / locatOpt}%10.2f")
    }
  }
}
