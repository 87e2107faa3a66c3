package perfbench

import repro.baselines.{Dac, GboRl, QTuneRl, Tuneful}
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, LocatSession, Trial, Tuner, TuningResult}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

private object SimApps {
  def apply(name: String) = Workloads.all.find(_.name == name).getOrElse(sys.error(s"unknown app $name"))
}

/** `locat-online`: one LOCAT online session per (app, cluster) —
  * `tuneInitial(100 GB)`, then `tuneNext` at 200..500 GB.
  */
final class LocatOnline(seed: Long) extends Workload {
  override val name = "locat-online"
  private val cells = for (a <- Seq("TPC-DS", "TPC-H", "Join"); c <- Seq(ClusterProfile.arm, ClusterProfile.x86)) yield (a, c)
  private val sizes = Workloads.datasizesGB
  private var replaySource: Option[(LocatSession, ConfigSpace, Seq[Trial])] = None

  override def sessions: Seq[String] = cells.map { case (a, c) => s"LOCAT/$a/${c.name}" }
  override def setUpRepeats: Int = 3
  override def nominalRoundSeconds: Double = 3.5

  override def setUp(tally: Tally): Unit =
    online("warm-up", "Join", ClusterProfile.x86, seed, new Tracer(false), tally)

  override def runSession(i: Int, tracer: Tracer, tally: Tally, round: Int): SessionOutcome = {
    val (a, c) = cells(i)
    val (out, session, space, trials) = online(sessions(i), a, c, Workload.roundSeed(seed, round), tracer, tally)
    if (round == 0 && i == 0) replaySource = Some((session, space, trials))
    out
  }

  private def online(label: String, a: String, c: ClusterProfile, seed: Long, tracer: Tracer,
                     tally: Tally): (SessionOutcome, LocatSession, ConfigSpace, Seq[Trial]) = {
    val span = tracer.begin("session")
    val ledger = new SessionLedger(label)
    val sim = new SparkClusterSimulator(SimApps(a), c, seed)
    val space = ConfigSpace.full(c.armRanges)
    val session = new LocatSession(new TimedObjective(sim, ledger, tracer, tally), space, seed)
    val steps = ArrayBuffer.empty[(Double, TuningResult, Long)]
    try sizes.foreach { ds =>
      val t0 = System.nanoTime()
      val r = if (steps.isEmpty) session.tuneInitial(ds) else session.tuneNext(ds)
      steps += ((ds, r, System.nanoTime() - t0))
    } finally {
      ledger.endNs = System.nanoTime()
      tracer.end(span, Map("trials" -> ledger.calls.toDouble))
    }

    val withNew = steps.indices.map { k =>
      val before = if (k == 0) 0 else steps(k - 1)._2.trials.size
      (steps(k)._2, steps(k)._2.trials.drop(before))
    }
    SessionChecks.check(label, withNew, ledger, tally)
    val defaults = space.defaults
    val bvd = steps.map { case (ds, r, _) => sim.expectedTotal(defaults, ds) / sim.expectedTotal(r.bestConf, ds) }.toSeq
    val counters = Map(
      "core.initial_s" -> steps.head._3 / 1e9,
      "core.next_s" -> Summary.median(steps.tail.map(_._3 / 1e9).toSeq),
      "core.full_trials" -> ledger.fullCalls.toDouble,
      "core.rqa_trials" -> ledger.rqaCalls.toDouble,
      "core.rqa_queries" -> ledger.rqaQueriesRun.toDouble,
      "core.rqa_full_equiv_queries" -> (ledger.rqaCalls * sim.queries.size).toDouble,
      "core.csq" -> session.qcsa.sensitive.size.toDouble,
      "core.iicp_kept" -> session.iicp.keptParams.size.toDouble,
      "core.kpca_dims" -> session.iicp.nFeatures.toDouble,
    )
    val out = SessionOutcome(label, ledger, Some((session.cumulativeOptimizationSeconds / 3600.0, bvd)), counters)
    (out, session, space, steps.last._2.trials)
  }

  override def layerMetrics(outcomes: Seq[SessionOutcome], tracer: Tracer): Seq[Metric] = {
    val (session, space, trials) = replaySource.getOrElse(sys.error("no LOCAT session to replay"))
    val rounds = outcomes.groupBy(_.ledger.label).values.map(_.size).max
    def perRound(key: String) = outcomes.map(_.counters(key)).sum / rounds
    val rqaShare = perRound("core.rqa_queries") / perRound("core.rqa_full_equiv_queries")
    new Replay(tracer, seed).locat(session, space, trials, nQcsa = 30, nIicp = 20) ++ Seq(
      Metric("core.full_trials", perRound("core.full_trials"), "count"),
      Metric("core.rqa_trials", perRound("core.rqa_trials"), "count"),
      Metric("core.rqa_share", rqaShare, "ratio"),
      Metric("core.csq", perRound("core.csq"), "count"),
      Metric("core.iicp_kept", perRound("core.iicp_kept"), "count"),
      Metric("core.kpca_dims", perRound("core.kpca_dims"), "count"),
      Metric("core.initial_s", Summary.median(outcomes.map(_.counters("core.initial_s"))), "s"),
      Metric("core.next_s", Summary.median(outcomes.map(_.counters("core.next_s"))), "s"),
    )
  }
}

/** `sota-sim`: Tuneful, DAC, GBO-RL and QTune, one-shot at 300 GB, on
  * TPC-DS/ARM-4node and TPC-H/x86-8node (the paper's Fig 11/13 cells).
  */
final class SotaSim(seed: Long) extends Workload {
  override val name = "sota-sim"
  private val ds = 300.0
  private val tunerKeys = Seq("tuneful", "dac", "gborl", "qtune")
  private val cells = for ((a, c) <- Seq(("TPC-DS", ClusterProfile.arm), ("TPC-H", ClusterProfile.x86)); t <- tunerKeys) yield (a, c, t)
  private val firstTrials = scala.collection.mutable.Map.empty[String, Seq[Trial]]

  private def tuner(key: String, c: ClusterProfile): Tuner = key match {
    case "tuneful" => new Tuneful()
    case "dac"     => new Dac()
    case "gborl"   => GboRl.forCluster(c)
    case "qtune"   => new QTuneRl()
  }

  /** The same four tuners at small budgets on the timed cells: it runs every
    * code path the timed sessions run, so they start with compiled code.
    */
  private def warmUpTuner(key: String, c: ClusterProfile): Tuner = key match {
    case "tuneful" => new Tuneful(samplesPerRound = 8, boIters = 20)
    case "dac"     => new Dac(nSamples = 40, nTrees = 30)
    case "gborl"   => GboRl.forCluster(c, boIters = 20)
    case "qtune"   => new QTuneRl(episodes = 60)
  }

  override def sessions: Seq[String] = cells.map { case (a, c, t) => s"$t/$a/${c.name}" }
  override def setUpRepeats: Int = 3
  override def nominalRoundSeconds: Double = 20.0

  override def setUp(tally: Tally): Unit =
    cells.foreach { case (a, c, t) => oneShot(s"warm-up/$t", a, c, warmUpTuner(t, c), seed, new Tracer(false), tally) }

  override def runSession(i: Int, tracer: Tracer, tally: Tally, round: Int): SessionOutcome = {
    val (a, c, t) = cells(i)
    val (out, trials) = oneShot(sessions(i), a, c, tuner(t, c), Workload.roundSeed(seed, round), tracer, tally)
    if (round == 0 && c == ClusterProfile.arm) firstTrials(t) = trials
    out.copy(counters = Map(s"baselines.$t.wall_s" -> out.ledger.wallNs / 1e9,
      s"baselines.$t.tuner_s" -> out.ledger.tunerNs / 1e9))
  }

  private def oneShot(label: String, a: String, c: ClusterProfile, t: Tuner, seed: Long, tracer: Tracer,
                      tally: Tally): (SessionOutcome, Seq[Trial]) = {
    val span = tracer.begin("session")
    val ledger = new SessionLedger(label)
    val sim = new SparkClusterSimulator(SimApps(a), c, seed)
    val space = ConfigSpace.full(c.armRanges)
    val r = try t.tune(new TimedObjective(sim, ledger, tracer, tally), space, ds, seed) finally {
      ledger.endNs = System.nanoTime()
      tracer.end(span, Map("trials" -> ledger.calls.toDouble))
    }
    SessionChecks.check(label, Seq((r, r.trials)), ledger, tally)
    val bvd = sim.expectedTotal(space.defaults, ds) / sim.expectedTotal(r.bestConf, ds)
    (SessionOutcome(label, ledger, Some((r.optimizationSeconds / 3600.0, Seq(bvd))), Map.empty), r.trials)
  }

  override def layerMetrics(outcomes: Seq[SessionOutcome], tracer: Tracer): Seq[Metric] = {
    val space = ConfigSpace.full(ClusterProfile.arm.armRanges)
    val replay = new Replay(tracer, seed)
    // GBO-RL's BO window: its last 80 trials on the raw 38-dim encoding,
    // scored over BoSearch's 160-candidate pool with its MCMC settings.
    val gbo = firstTrials("gborl").takeRight(80)
    val xs = gbo.map(t => space.encode(t.conf))
    val ys = gbo.map(t => math.log(t.result.totalSeconds))
    val rng = new Random(seed)
    val pool = Seq.fill(160)(Array.fill(space.dim)(rng.nextDouble()))
    val perTuner = tunerKeys.flatMap { t =>
      Seq("wall_s", "tuner_s").map { m =>
        val key = s"baselines.$t.$m"
        Metric(key, Summary.median(outcomes.flatMap(_.counters.get(key))), "s")
      }
    }
    replay.gp(xs, ys, pool, nSamples = 3, nBurn = 6, thin = 2) ++
      Seq(replay.gpFitRaw(xs, ys)) ++
      replay.stats(space, firstTrials("tuneful").take(20).map(t => (t.conf, t.result.totalSeconds))) ++
      replay.ml(space, firstTrials("dac").take(240), ds) ++
      perTuner
  }
}
