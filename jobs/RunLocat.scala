package repro.jobs

import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, Locat}

/** spark-submit entrypoint: run LOCAT against the cluster simulator.
  *
  * Usage: RunLocat [workload] [datasizeGB] [cluster] [seed]
  *   workload ∈ {TPC-DS, TPC-H, Join, Scan, Aggregation}  (default TPC-DS)
  *   cluster  ∈ {arm, x86}                                 (default arm)
  */
object RunLocat {
  def main(args: Array[String]): Unit = {
    val workloadName = args.lift(0).getOrElse("TPC-DS")
    val ds = args.lift(1).map(_.toDouble).getOrElse(300.0)
    val cluster = if (args.lift(2).contains("x86")) ClusterProfile.x86 else ClusterProfile.arm
    val seed = args.lift(3).map(_.toLong).getOrElse(42L)

    val sim = new SparkClusterSimulator(Workloads.byName(workloadName), cluster, seed)
    val space = ConfigSpace.full(cluster.armRanges)

    val result = new Locat().tune(sim, space, ds, seed)
    println(s"workload=$workloadName ds=${ds}GB cluster=${cluster.name}")
    println(f"best full-app time: ${result.bestTimeSeconds}%.1f s")
    println(f"optimization time:  ${result.optimizationSeconds / 3600.0}%.2f simulated hours (${result.trials.size} executions)")
    println("best configuration:")
    result.bestConf.values.toSeq.sortBy(_._1).foreach { case (k, v) => println(f"  $k = $v%.2f") }
  }
}
