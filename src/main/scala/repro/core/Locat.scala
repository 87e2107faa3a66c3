package repro.core

import repro.gp.EiMcmc
import scala.util.Random

/** The LOCAT tuner (paper §3, Fig 3).
  *
  * Procedure for a fresh application:
  *  1. Run BO with DAGP over the *full* configuration space for `nQcsa` = 30
  *     executions (3 LHS start points + 27 EI-MCMC picks), recording
  *     per-query times. These executions double as the QCSA and IICP samples
  *     — the paper stresses no extra sample collection happens.
  *  2. QCSA over the 30 runs → drop CIQs, keep the RQA.
  *  3. IICP (CPS + CPE) over the first `nIicp` = 20 samples → Gaussian-KPCA
  *     feature map over the important parameters.
  *  4. Continue BO with DAGP over (extracted features, datasize), executing
  *     only the RQA, until ≥ `minIter` iterations and EI < ln(1.1)
  *     (expected relative improvement below 10%, §3.4), or `maxIter`.
  *  5. Verify the best configuration with one full-application run.
  *
  * A `LocatSession` keeps all state so that when the input datasize changes,
  * `tuneNext` continues from the existing DAGP (datasize is a model input)
  * instead of re-tuning — the paper's "online" usage (§3.1, Fig 20).
  */
final class LocatSession(
    objective: TuningObjective,
    space: ConfigSpace,
    seed: Long,
    nQcsa: Int = 30,
    nIicp: Int = 20,
    minIter: Int = 10,
    maxIter: Int = 60,
    nextMinIter: Int = 5,
    nextMaxIter: Int = 20,
    useIicp: Boolean = true, // false = "AP" mode of Fig 15: tune all 38 parameters
) {
  require(nIicp <= nQcsa, "IICP samples are a prefix of the QCSA samples")

  private val rng = new Random(seed)
  private val log = new TrialLog(objective)

  /** One DAGP observation of RQA time; `subUnit` is the search-subspace
    * point that produced it (None for the QCSA full runs). */
  private final case class RqaSample(conf: ConfigValues, subUnit: Option[Array[Double]], obs: Dagp.Sample)

  // phase-1 full runs with the unit-cube point each was decoded from
  private val fullRuns = scala.collection.mutable.ArrayBuffer.empty[(Array[Double], Trial)]
  private val rqaSamples = scala.collection.mutable.ArrayBuffer.empty[RqaSample]

  private var qcsaResult: Option[Qcsa.Result] = None
  private var iicpModel: Option[Iicp.Model] = None
  private var pinnedBase: Option[ConfigValues] = None

  /** QCSA outcome (available after tuneInitial). */
  def qcsa: Qcsa.Result = qcsaResult.getOrElse(throw new IllegalStateException("run tuneInitial first"))
  /** IICP outcome (available after tuneInitial). */
  def iicp: Iicp.Model = iicpModel.getOrElse(throw new IllegalStateException("run tuneInitial first"))
  /** Cumulative execution seconds paid so far across all tuning phases. */
  def cumulativeOptimizationSeconds: Double = log.cost

  /** Lowest log time among `obs` and the index of its first occurrence. */
  private def bestLogTime(obs: Seq[Dagp.Sample]): (Double, Int) = {
    val ys = obs.map(s => math.log(s.seconds))
    val best = ys.min
    (best, ys.indexOf(best))
  }

  // ---------------------------------------------------------------- phase 1

  private def runFull(u: Array[Double], ds: Double): Unit =
    fullRuns += ((u, log.run(space.decode(u), ds)))

  private def collectQcsaSamples(ds: Double): Unit = {
    // 3 LHS start points (paper §3.4)
    space.lhsUnit(3, rng).foreach(runFull(_, ds))
    // BO with DAGP over the raw full space until nQcsa executions exist;
    // candidates live in conf-space, the ds coordinate pinned to the current ds
    while (fullRuns.size < nQcsa) {
      val obs = fullRuns.map { case (u, t) => Dagp.Sample(u, t.datasizeGB, t.result.totalSeconds) }.toVector
      val model = Dagp.fit(obs, rng, nMcmcSamples = 3, nBurn = 8)
      val (best, i) = bestLogTime(obs)
      val pool = EiMcmc.candidatePool(space.dim, rng, nRandom = 192, Some(obs(i).features),
        nLocal = 48, Seq(0.08))
      runFull(EiMcmc.argmaxEi(model, best, pool, Dagp.inputVec(_, ds)).fold(pool.head)(_._1), ds)
    }
  }

  // ---------------------------------------------------------------- phase 2

  private def rqaSecondsOf(res: ExecResult, rqa: Seq[String]): Double =
    rqa.map(res.perQuerySeconds).sum

  // With IICP off (Fig 15 "AP"), the DAGP input is the raw 38-dim encoding.
  private def searchSubspace: ConfigSpace = if (useIicp) iicp.subspace else space
  private def featuresOfConf(conf: ConfigValues): Array[Double] =
    if (useIicp) iicp.features(conf) else space.encode(conf)
  private def featuresOfSubUnit(u: Array[Double]): Array[Double] =
    if (useIicp) iicp.featuresOfSubspaceUnit(u) else u

  /** DAGP over the most recent RQA observations, and those observations. */
  private def fitRqaWindow(): (Vector[RqaSample], EiMcmc.Marginalized) = {
    val window = rqaSamples.takeRight(EiMcmc.TrainWindow).toVector
    (window, Dagp.fit(window.map(_.obs), rng, nMcmcSamples = 4, nBurn = 10))
  }

  private def boOnRqa(ds: Double, itMin: Int, itMax: Int): Unit = {
    val rqa = qcsa.rqa
    val sub = searchSubspace
    var iter = 0
    var continue = true
    while (continue) {
      val (window, model) = fitRqaWindow()
      val (best, i) = bestLogTime(window.map(_.obs))
      // candidate pool in the important-parameter subspace: global random
      // draws plus coarse and fine perturbations of the incumbent
      val pool = EiMcmc.candidatePool(sub.dim, rng, nRandom = 320, window(i).subUnit,
        nLocal = 96, Seq(0.08, 0.025))
      val (u, ei) = EiMcmc.argmaxEi(model, best, pool, c => Dagp.inputVec(featuresOfSubUnit(c), ds))
        .getOrElse((pool.head, Double.NegativeInfinity))

      // evaluate: important params from the candidate, the rest pinned
      val conf = ConfigValues(pinnedBase.get.values ++ sub.decode(u).values)
      val t = log.run(conf, ds, Some(rqa))
      rqaSamples += RqaSample(conf, Some(u), Dagp.Sample(featuresOfConf(conf), ds, rqaSecondsOf(t.result, rqa)))

      iter += 1
      continue = iter < itMax && (iter < itMin || ei >= Dagp.EiStopThreshold)
    }
  }

  private def finishAtDs(ds: Double): TuningResult = {
    // Pick the configuration whose DAGP posterior-mean RQA time at this
    // datasize is lowest: the surrogate denoises single observations, so
    // LOCAT sidesteps the winner's curse of argmin-over-noisy-runs.
    val (_, model) = fitRqaWindow()
    val best = rqaSamples.filter(_.obs.datasizeGB == ds)
      .minBy(s => model.predict(Dagp.inputVec(s.obs.features, ds))._1)
    log.result(log.run(best.conf, ds))
  }

  /** Full LOCAT procedure for the first (or only) datasize. */
  def tuneInitial(ds: Double): TuningResult = {
    if (qcsaResult.nonEmpty) throw new IllegalStateException("tuneInitial may only run once per session")
    collectQcsaSamples(ds)
    val full = fullRuns.map(_._2).toVector
    qcsaResult = Some(Qcsa.analyze(full.map(_.result.perQuerySeconds), objective.queries))
    if (useIicp) iicpModel = Some(Iicp.fit(space, full.take(nIicp).map(t => (t.conf, t.result.totalSeconds))))
    // Non-important parameters stay at their Spark defaults — LOCAT only
    // tunes the important ones (§3.3); tuning the rest can counteract the
    // gains (§5.6). Resource-sizing parameters are the exception: their
    // "defaults" are meaningless on a real cluster (§5.12 derives their
    // ranges from cluster capacity), so any CPS-dropped resource parameter
    // is pinned at the best configuration seen during sample collection.
    val resourceFamily = space.params.filter(p =>
      p.resource || p.name == "spark.executor.instances" || p.name == "spark.default.parallelism")
      .map(_.name).toSet
    val bestSeen = full.minBy(_.result.totalSeconds).conf
    pinnedBase = Some(ConfigValues(space.defaults.values ++
      bestSeen.values.view.filterKeys(resourceFamily).toMap))
    val rqa = qcsa.rqa
    full.foreach { t =>
      rqaSamples += RqaSample(t.conf, None,
        Dagp.Sample(featuresOfConf(t.conf), t.datasizeGB, rqaSecondsOf(t.result, rqa)))
    }
    boOnRqa(ds, minIter, maxIter)
    finishAtDs(ds)
  }

  /** Online continuation when the datasize changes: DAGP already knows `ds`
    * as an input, so only a short RQA-only BO refinement runs.
    */
  def tuneNext(ds: Double): TuningResult = {
    if (qcsaResult.isEmpty) throw new IllegalStateException("tuneNext requires tuneInitial")
    val before = log.cost
    boOnRqa(ds, nextMinIter, nextMaxIter)
    val r = finishAtDs(ds)
    // report only the incremental cost of this datasize
    r.copy(optimizationSeconds = log.cost - before)
  }
}

/** `Tuner` facade: one-shot LOCAT at a fixed datasize. */
final class Locat(nQcsa: Int = 30, nIicp: Int = 20, minIter: Int = 10, maxIter: Int = 60,
                  useIicp: Boolean = true) extends Tuner {
  override def name: String = if (useIicp) "LOCAT" else "LOCAT-AP"
  override def tune(objective: TuningObjective, space: ConfigSpace, datasizeGB: Double, seed: Long): TuningResult =
    new LocatSession(objective, space, seed, nQcsa, nIicp, minIter, maxIter,
      useIicp = useIicp).tuneInitial(datasizeGB)
}
