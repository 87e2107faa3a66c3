package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <locat-online|sota-sim|real-spark> [--seed 42] [--seconds 10] [--trace 0|1] [--out dir]
  * }}}
  *
  * Sets up, then runs `--seconds` ÷ the workload's nominal round time
  * rounds of sessions (at least one; two with `--trace 1`), runs the
  * correctness checks and prints a table followed by one JSON line. With
  * `--trace 0` the JSON holds the end-to-end metrics; with `--trace 1` it
  * holds the per-layer metrics, and every span plus every per-layer metric
  * is written to `<out>/<workload>-seed<seed>.trace.json`. Exits non-zero
  * when any operation or check failed.
  */
object Main {

  /** End-to-end metrics of the JSON line, in print order: name, unit. The
    * table also prints trial_ms_p50/p90: a simulator call takes well under a
    * millisecond, and its time swings with other load on the host far more
    * than the sessions' time does, so it is not gated.
    */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "wall_s" -> "s", "tuner_s" -> "s", "decide_ms_p50" -> "ms", "decide_ms_p90" -> "ms",
    "opt_sim_h" -> "h", "best_vs_default" -> "x")

  /** Per-layer metrics every simulator workload reports in its JSON line. */
  val PerLayer: Seq[String] = Seq(
    "cluster.eval_ms", "cluster.queries", "cluster.calls",
    "gp.fit_ms", "gp.mcmc_fit_ms", "gp.ei_pool_ms", "gp.fit_ms_raw38", "linalg.cholesky_ms",
    "stats.iicp_fit_ms", "stats.kpca_transform_us", "ml.gbrt_fit_ms", "ml.ga_ms",
    "jvm.gc_s", "jvm.heap_peak_mb", "trace.wall_ratio", "trace.session_self_s")

  final case class Opts(workload: String = "", seed: Long = 42L, seconds: Double = 10.0,
                        trace: Boolean = false, out: File = new File("perfbench/out"))

  final case class Round(traced: Boolean, outcomes: Seq[Option[SessionOutcome]], roundSpan: Int) {
    def complete: Boolean = outcomes.forall(_.isDefined)
    def done: Seq[SessionOutcome] = outcomes.flatten
    def wallS: Double = done.map(_.ledger.wallNs).sum / 1e9
    def tunerS: Double = done.map(_.ledger.tunerNs).sum / 1e9
  }

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case "--out" :: v :: rest      => parse(rest, o.copy(out = new File(v)))
    case Nil                       => o
    case other                     => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val jvmToMainS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    val opts = parse(args.toList)
    require(Workload.names.contains(opts.workload), s"--workload must be one of ${Workload.names.mkString(", ")}")
    val code =
      try run(opts, jvmToMainS)
      catch { case e: Throwable => e.printStackTrace(); 2 }
    System.exit(code)
  }

  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def run(o: Opts, jvmToMainS: Double): Int = {
    val tally = new Tally
    val w = Workload(o.workload, o.seed, o.out)
    try {
      val setups = (1 to w.setUpRepeats).map { _ =>
        val t0 = System.nanoTime()
        w.setUp(tally)
        (System.nanoTime() - t0) / 1e9
      }
      val setupS = jvmToMainS + Summary.median(setups)

      val tracer = new Tracer(o.trace)
      val untraced = new Tracer(false)
      val gc0 = gcMs
      heapPools.foreach(_.resetPeakUsage())
      val runSpan = tracer.begin("run")
      val workloadSpan = tracer.begin(s"workload.${w.name}")
      val nRounds = math.max(if (o.trace) 2 else 1, math.round(o.seconds / w.nominalRoundSeconds).toInt)
      val rounds = ArrayBuffer.empty[Round]
      while (rounds.size < nRounds) {
        // with --trace 1, rounds alternate untraced / traced for the overhead ratio
        val t = if (o.trace && rounds.size % 2 == 1) tracer else untraced
        val roundSpan = t.begin("round")
        val outs = w.sessions.indices.map { i =>
          tally.attempted += 1
          try Some(w.runSession(i, t, tally, rounds.size))
          catch { case e: Exception => tally.fail(s"session ${w.sessions(i)} threw $e"); None }
        }
        t.end(roundSpan)
        rounds += Round(t.enabled, outs, roundSpan)
      }
      val gcS = (gcMs - gc0) / 1000.0
      val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

      val all = rounds.flatMap(_.done).toSeq
      w.finalChecks(all, tally)

      val endToEnd = endToEndMetrics(setupS, rounds.toSeq)
      val layers =
        if (!o.trace) Nil
        else {
          val replayed = w.layerMetrics(all, tracer)
          tracer.end(workloadSpan)
          tracer.end(runSpan)
          val m = clusterMetrics(w, rounds.toSeq) ++ replayed ++ Seq(
            Metric("jvm.gc_s", gcS, "s"),
            Metric("jvm.heap_peak_mb", heapPeakMb, "MB")) ++ traceMetrics(tracer, rounds.toSeq)
          tracer.write(new File(o.out, s"${w.name}-seed${o.seed}.trace.json"), m)
          m
        }

      val samples = all.map(_.ledger.trialNs.size).sum
      println(s"== perfbench ${w.name} seed=${o.seed} rounds=${rounds.size} sessions=${all.size} trials=$samples " +
        s"trace=${if (o.trace) 1 else 0}")
      println("  round wall s: " + rounds.map(r => f"${r.wallS}%.3f").mkString(" "))
      println("  first round (the seed itself): " + rounds.head.done.map { o =>
        val q = o.simQuality.fold("")(q => f" opt=${q._1}%.4fh best_vs_default=${q._2.map(v => f"$v%.4f").mkString("/")}")
        f"${o.label} wall=${o.ledger.wallNs / 1e9}%.3fs$q"
      }.mkString("\n    ", "\n    ", ""))
      (endToEnd ++ layers).foreach(m => println(f"  ${m.name}%-34s ${m.value}%14.6f ${m.unit}"))
      println(f"  ${"failed_frac"}%-34s ${tally.failed.toDouble / math.max(1L, tally.attempted)}%14.6f ratio " +
        s"(${tally.failed} of ${tally.attempted} operations and checks)")
      tally.messages.foreach(m => println(s"  FAILED: $m"))

      val printed =
        if (o.trace) layers.filter(m => PerLayer.contains(m.name) || w.name == "real-spark")
        else endToEnd.filter(m => EndToEnd.exists(_._1 == m.name))
      val correct = tally.failed == 0
      println(s"""{"correct": $correct, "attempted": ${tally.attempted}, "failed": ${tally.failed}, """ +
        s""""metrics": {${printed.map(Json.metric).mkString(", ")}}}""")
      if (correct) 0 else 1
    } finally w.close()
  }

  /** The end-to-end metrics a workload can give (opt_sim_h and
    * best_vs_default exist only on the simulator).
    */
  def endToEndMetrics(setupS: Double, rounds: Seq[Round]): Seq[Metric] = {
    val complete = rounds.filter(_.complete)
    val ledgers = rounds.flatMap(_.done).map(_.ledger)
    val decide = ledgers.flatMap(_.decideNs).map(_ / 1e6)
    val trial = ledgers.flatMap(_.trialNs).map(_ / 1e6)
    val quality = if (rounds.forall(_.complete)) rounds.flatMap(_.done).map(_.simQuality) else Nil
    val sim = quality.nonEmpty && quality.forall(_.isDefined)
    Seq(Metric("setup_s", setupS, "s")) ++
      (if (complete.isEmpty) Nil else Seq(
        Metric("wall_s", complete.map(_.wallS).sum / complete.size, "s"),
        Metric("tuner_s", complete.map(_.tunerS).sum / complete.size, "s"))) ++
      Summary.percentile(decide, 50).map(Metric("decide_ms_p50", _, "ms")) ++
      Summary.percentile(decide, 90).map(Metric("decide_ms_p90", _, "ms")) ++
      Summary.percentile(trial, 50).map(Metric("trial_ms_p50", _, "ms")) ++
      Summary.percentile(trial, 90).map(Metric("trial_ms_p90", _, "ms")) ++
      (if (!sim) Nil else Seq(
        Metric("opt_sim_h", Summary.geomean(quality.flatten.map(_._1)), "h"),
        Metric("best_vs_default", Summary.geomean(quality.flatten.flatMap(_._2)), "x")))
  }

  /** Simulator layer: host time and work per round (medians over complete rounds). */
  private def clusterMetrics(w: Workload, rounds: Seq[Round]): Seq[Metric] =
    if (w.name == "real-spark") Nil
    else {
      val complete = rounds.filter(_.complete)
      def perRound(f: SessionLedger => Double) = Summary.median(complete.map(_.done.map(o => f(o.ledger)).sum))
      Seq(
        Metric("cluster.eval_ms", perRound(_.objectiveNs / 1e6), "ms"),
        Metric("cluster.queries", perRound(_.queriesRun.toDouble), "count"),
        Metric("cluster.calls", perRound(_.calls.toDouble), "count"))
    }

  /** Tracing overhead (traced ÷ untraced round wall) and the sessions' self
    * time from the spans, which should equal tuner_s of the traced rounds.
    */
  private def traceMetrics(tracer: Tracer, rounds: Seq[Round]): Seq[Metric] = {
    val (on, off) = rounds.filter(_.complete).partition(_.traced)
    val selfS = on.map { r =>
      tracer.children(r.roundSpan).filter(_.name == "session").map(tracer.selfNs).sum / 1e9
    }
    (if (on.isEmpty || off.isEmpty) Nil
     else Seq(Metric("trace.wall_ratio", Summary.median(on.map(_.wallS)) / Summary.median(off.map(_.wallS)), "ratio"))) ++
      (if (selfS.isEmpty) Nil else Seq(Metric("trace.session_self_s", Summary.median(selfS), "s")))
  }
}
