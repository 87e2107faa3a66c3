package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigSpace, ConfigValues, Qcsa}
import scala.util.Random

class SimulatorSpec extends AnyFunSuite {

  private val armSpace = ConfigSpace.full(arm = true)
  private def sim(w: SimWorkload = Workloads.tpcds, c: ClusterProfile = ClusterProfile.arm, seed: Long = 1) =
    new SparkClusterSimulator(w, c, seed)

  /** A sane mid-range configuration for the ARM cluster. */
  private def goodConf: ConfigValues = armSpace.defaults
    .updated("spark.executor.instances", 96)
    .updated("spark.executor.cores", 4)
    .updated("spark.executor.memory", 16)
    .updated("spark.executor.memoryOverhead", 2048)
    .updated("spark.sql.shuffle.partitions", 600)
    .updated("spark.shuffle.compress", 1.0)
    .updated("spark.memory.offHeap.enabled", 1.0)
    .updated("spark.memory.offHeap.size", 4096)

  test("workloads match Table 1: five apps, TPC-DS has 104 queries, TPC-H 22") {
    assert(Workloads.all.map(_.name) == Seq("TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"))
    assert(Workloads.tpcds.profiles.size == 104)
    assert(Workloads.tpch.profiles.size == 22)
    assert(Workloads.hibenchJoin.profiles.size == 1)
    assert(Workloads.datasizesGB == Seq(100.0, 200.0, 300.0, 400.0, 500.0))
  }

  test("the paper's 23 CSQs and 13 selection queries exist in the TPC-DS ids") {
    val ids = Workloads.tpcdsIds.toSet
    Workloads.tpcdsCsq.foreach(q => assert(ids(q), q))
    Workloads.tpcdsSelection.foreach(q => assert(ids(q), q))
  }

  test("Q72 shuffles 52 GB per 100 GB input; Q08 about 5 MB (paper §5.11)") {
    assert(Workloads.tpcds.profile("Q72").shuffleGBPerGB == 0.52)
    assert(math.abs(Workloads.tpcds.profile("Q08").shuffleGBPerGB * 100.0 - 0.005) < 0.002)
  }

  test("execution time grows with datasize for every query category") {
    val s = sim()
    for (q <- Seq("Q72", "Q09", "Q04")) {
      val t100 = s.expectedPerQuery(goodConf, 100.0)(q)
      val t500 = s.expectedPerQuery(goodConf, 500.0)(q)
      assert(t500 > t100, s"$q: $t100 -> $t500")
    }
  }

  test("run() is noisy but expected*() is deterministic") {
    val s1 = sim(seed = 5)
    val a = s1.run(goodConf, 100.0).totalSeconds
    val b = s1.run(goodConf, 100.0).totalSeconds
    assert(a != b) // noise differs call to call
    assert(sim(seed = 9).expectedTotal(goodConf, 100.0) == sim(seed = 5).expectedTotal(goodConf, 100.0))
  }

  test("same seed ⇒ identical run sequences (reproducibility)") {
    val a = sim(seed = 7).run(goodConf, 100.0)
    val b = sim(seed = 7).run(goodConf, 100.0)
    assert(a.perQuerySeconds == b.perQuerySeconds)
  }

  test("pinned outputs: one seeded run and the noise-free defaults") {
    def near(got: Double, want: Double): Boolean = math.abs(got - want) <= 1e-12 * want
    val s = sim(seed = 42)
    val r = s.run(goodConf, 300.0, Some(Seq("Q72", "Q04", "Q09")))
    val want = Map("Q72" -> 171.77343152949967, "Q04" -> 293.2469832813137, "Q09" -> 40.699224483940625)
    want.foreach { case (q, t) => assert(near(r.perQuerySeconds(q), t), s"$q=${r.perQuerySeconds(q)}") }
    assert(near(r.gcSeconds, 54.367135010601785), s"gc=${r.gcSeconds}")
    assert(near(s.expectedTotal(armSpace.defaults, 300.0), 24327.16467240991))
    assert(near(s.expectedGc(armSpace.defaults, 300.0), 8918.08840714978))
  }

  test("subset runs only the requested queries and costs less") {
    val s = sim()
    val sub = s.run(goodConf, 100.0, Some(Seq("Q72", "Q29")))
    assert(sub.perQuerySeconds.keySet == Set("Q72", "Q29"))
    assert(sub.totalSeconds < s.expectedTotal(goodConf, 100.0))
  }

  test("selection queries are near-insensitive, Q72 is highly sensitive") {
    val s = sim()
    val rng = new Random(11)
    val runs = (0 until 25).map(_ => s.expectedPerQuery(armSpace.random(rng), 100.0))
    def cv(q: String) = repro.stats.Stats.cv(runs.map(_(q)))
    assert(cv("Q72") > 5 * cv("Q09"), s"Q72=${cv("Q72")} Q09=${cv("Q09")}")
    assert(cv("Q72") > 5 * cv("Q04"), s"Q04=${cv("Q04")} should be insensitive though long")
  }

  test("Q04 is long despite being insensitive (paper §5.2)") {
    val s = sim()
    val t = s.expectedPerQuery(goodConf, 100.0)
    assert(t("Q04") > 50.0, s"Q04=${t("Q04")}")
    val medianAll = t.values.toSeq.sorted.apply(t.size / 2)
    assert(t("Q04") > medianAll * 2)
  }

  test("QCSA over simulator runs keeps Q72 and drops the selection queries") {
    val s = sim()
    val rng = new Random(13)
    val runs = (0 until 30).map(_ => s.run(armSpace.random(rng), 100.0).perQuerySeconds)
    val r = Qcsa.analyze(runs, s.queries)
    assert(r.sensitive.contains("Q72"))
    Workloads.tpcdsSelection.foreach(q => assert(!r.sensitive.contains(q), s"$q should be CIQ"))
    assert(r.sensitive.size < 50, s"kept ${r.sensitive.size} of 104")
  }

  test("shuffle compression helps shuffle-heavy queries, barely matters for selection") {
    val s = sim()
    val on = goodConf.updated("spark.shuffle.compress", 1.0)
    val off = goodConf.updated("spark.shuffle.compress", 0.0)
    val q72gain = s.expectedPerQuery(off, 300.0)("Q72") / s.expectedPerQuery(on, 300.0)("Q72")
    val q09gain = s.expectedPerQuery(off, 300.0)("Q09") / s.expectedPerQuery(on, 300.0)("Q09")
    assert(q72gain > 1.15, s"q72gain=$q72gain")
    assert(q09gain < 1.02, s"q09gain=$q09gain")
  }

  test("too few shuffle partitions causes spill slowdown on big shuffles") {
    val s = sim()
    val few = goodConf.updated("spark.sql.shuffle.partitions", 100)
      .updated("spark.executor.memory", 4).updated("spark.memory.offHeap.enabled", 0.0)
    val many = few.updated("spark.sql.shuffle.partitions", 1000)
    assert(s.expectedPerQuery(few, 500.0)("Q72") > 1.2 * s.expectedPerQuery(many, 500.0)("Q72"))
  }

  test("broadcast threshold above the dim table size speeds up broadcast-able joins") {
    val s = sim()
    val q = Workloads.tpcds.profiles.find(p => p.dimTableMB > 0 && p.shuffleGBPerGB > 0.05).get
    val below = goodConf.updated("spark.sql.autoBroadcastJoinThreshold", 1024) // 1 MB
    val above = goodConf.updated("spark.sql.autoBroadcastJoinThreshold", 8192) // 8 MB
    assert(s.expectedPerQuery(above, 300.0)(q.id) < s.expectedPerQuery(below, 300.0)(q.id))
  }

  test("feasibility repair (§5.12): memory scales down so requested executors always fit") {
    val s = sim()
    val greedy = goodConf.updated("spark.executor.memory", 32)
      .updated("spark.executor.memoryOverhead", 32768)
      .updated("spark.memory.offHeap.size", 32768)
      .updated("spark.executor.instances", 384)
    val r = s.resources(greedy)
    assert(r.execs == 384) // the request is granted...
    // ...but 384 × (32 + 32/2 + 32) GB ≫ 1536 GB, so per-executor memory
    // shrinks to the budget (overhead is a ceiling, accounted at 50%)
    val perExec = r.execMemGB + 0.5 * r.overheadGB + r.offHeapGB
    assert(perExec <= 1536.0 / 384 + 1e-9, s"perExec=$perExec")
    assert(r.execMemGB < 32.0)
    // and cores cannot exceed the cluster's 384 total
    assert(r.slots <= 384 + 1e-9)
  }

  test("feasible requests are granted unchanged") {
    val s = sim()
    val r = s.resources(goodConf) // 96 × (16+2+4) GB ≈ 2.1 TB? no: 96×22=2.1TB > 1536 — scale
    assert(r.execs == 96)
    assert(r.execMemGB <= 16.0)
    val modest = goodConf.updated("spark.executor.instances", 48)
      .updated("spark.executor.memory", 8).updated("spark.executor.memoryOverhead", 1024)
      .updated("spark.memory.offHeap.size", 1024)
    val rm = sim().resources(modest)
    assert(rm.execMemGB == 8.0 && rm.execs == 48) // 48 × ~10 GB fits 1536 GB
  }

  test("GC time rises with memory pressure and falls with off-heap relief") {
    val s = sim()
    val starved = goodConf.updated("spark.executor.memory", 4)
      .updated("spark.executor.instances", 48).updated("spark.memory.offHeap.enabled", 0.0)
    val relieved = starved.updated("spark.memory.offHeap.enabled", 1.0)
      .updated("spark.memory.offHeap.size", 16384)
    val gcStarved = s.expectedGc(starved, 500.0)
    val gcGood = s.expectedGc(goodConf, 500.0)
    val gcRelieved = s.expectedGc(relieved, 500.0)
    assert(gcStarved > gcGood, s"starved=$gcStarved good=$gcGood")
    assert(gcRelieved < gcStarved, s"relieved=$gcRelieved starved=$gcStarved")
  }

  test("GC pressure grows with datasize under a fixed config (paper §5.8)") {
    val s = sim()
    val gcShare100 = s.expectedGc(goodConf, 100.0) / s.expectedTotal(goodConf, 100.0)
    val gcShare500 = s.expectedGc(goodConf, 500.0) / s.expectedTotal(goodConf, 500.0)
    assert(gcShare500 > gcShare100)
  }

  test("x86 cluster with Range B configs also runs sanely") {
    val x86Space = ConfigSpace.full(arm = false)
    val s = sim(c = ClusterProfile.x86)
    val rng = new Random(17)
    (0 until 10).foreach { _ =>
      val t = s.expectedTotal(x86Space.random(rng), 200.0)
      assert(t > 0 && t.isFinite)
    }
  }

  test("more executors reduce CPU-bound query time until the parallelism cap") {
    val s = sim(w = Workloads.hibenchJoin)
    val small = goodConf.updated("spark.executor.instances", 48).updated("spark.executor.cores", 2)
    val big = goodConf.updated("spark.executor.instances", 192).updated("spark.executor.cores", 2)
    assert(s.expectedTotal(big, 300.0) < s.expectedTotal(small, 300.0))
  }

  test("HiBench Scan is far less config-sensitive than HiBench Join") {
    val sScan = sim(w = Workloads.hibenchScan)
    val sJoin = sim(w = Workloads.hibenchJoin)
    val rng = new Random(19)
    val confs = (0 until 20).map(_ => armSpace.random(rng))
    val cvScan = repro.stats.Stats.cv(confs.map(c => sScan.expectedTotal(c, 300.0)))
    val cvJoin = repro.stats.Stats.cv(confs.map(c => sJoin.expectedTotal(c, 300.0)))
    assert(cvScan < cvJoin / 2, s"scan=$cvScan join=$cvJoin")
  }

  test("invalid datasize is rejected") {
    intercept[IllegalArgumentException] { sim().expectedTotal(goodConf, 0.0) }
  }
}
