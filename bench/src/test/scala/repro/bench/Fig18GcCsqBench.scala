package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, Workloads, SparkClusterSimulator}
import repro.core.ConfigSpace

/** Fig 18 / Fig 19 — where the speedup comes from: the tuned improvement is
  * concentrated in the CSQ share of TPC-DS, and LOCAT's win over the SOTA
  * tuners comes chiefly from reduced JVM GC time.
  */
class Fig18GcCsqBench extends AnyFunSuite {

  private val c = ClusterProfile.arm
  private val csq = Workloads.tpcdsCsq.toSet

  test("Fig 18: tuning shrinks CSQ time far more than CIQ time (TPC-DS)") {
    println("== Fig 18: CSQ vs CIQ execution time (TPC-DS, ARM) ==")
    Seq(100.0, 300.0, 500.0).foreach { ds =>
      val sim = new SparkClusterSimulator(Workloads.byName("TPC-DS"), c, Bench.Seed)
      val defConf = ConfigSpace.full(true).defaults
      val perDef = sim.expectedPerQuery(defConf, ds)
      val locat = Bench.run("LOCAT", "TPC-DS", c, ds)
      val perTuned = sim.expectedPerQuery(locat.result.bestConf, ds)
      def split(m: Map[String, Double]) = (m.filter(kv => csq(kv._1)).values.sum,
        m.filterNot(kv => csq(kv._1)).values.sum)
      val (csqDef, ciqDef) = split(perDef)
      val (csqTuned, ciqTuned) = split(perTuned)
      println(f"${ds.toInt}%4d GB: default CSQ=$csqDef%8.1f CIQ=$ciqDef%8.1f | " +
        f"LOCAT CSQ=$csqTuned%8.1f CIQ=$ciqTuned%8.1f | " +
        f"CSQ gain=${csqDef / csqTuned}%4.2fx CIQ gain=${ciqDef / ciqTuned}%4.2fx")
      assert(csqDef / csqTuned > ciqDef / ciqTuned,
        s"$ds: CSQ must improve more than CIQ")
    }
  }

  test("Fig 19: LOCAT's configurations incur less GC time than the SOTA tuners'") {
    println("== Fig 19: GC seconds of best configurations (ARM) ==")
    Seq("TPC-DS", "Join").foreach { w =>
      Seq(100.0, 300.0, 500.0).foreach { ds =>
        val locatGc = Bench.run("LOCAT", w, c, ds).gcSeconds
        val sotaGcs = Bench.sotaNames.map(t => t -> Bench.run(t, w, c, ds).gcSeconds)
        println(f"$w%-8s ${ds.toInt}%4d GB: LOCAT=$locatGc%8.1f " +
          sotaGcs.map { case (t, g) => f"$t=$g%.1f" }.mkString(" "))
        // shape: on the multi-query application LOCAT's GC beats the SOTA
        // median (single-query Join rows are informational — GC is a small,
        // freely-tradeable term there)
        if (w == "TPC-DS") {
          val sorted = sotaGcs.map(_._2).sorted
          assert(locatGc <= sorted(sorted.size / 2) * 1.1,
            s"$w@$ds: LOCAT GC $locatGc vs SOTA ${sotaGcs.toMap}")
        }
      }
    }
  }
}
