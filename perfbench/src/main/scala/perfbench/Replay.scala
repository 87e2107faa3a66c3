package perfbench

import repro.core.{ConfigSpace, Dagp, Iicp, LocatSession, Trial}
import repro.gp.{EiMcmc, GaussianProcess, GpKernel}
import repro.linalg.Mat
import repro.ml.{Ga, Gbrt}
import scala.util.Random

/** Replays each layer's public functions, from outside the program, on
  * inputs rebuilt from a workload's own trials. Every replay runs [[Reps]]
  * times under a `layer.<name>` span and reports the median.
  */
final class Replay(tracer: Tracer, seed: Long) {
  val Reps = 7
  private val kernel = GpKernel.Matern52(ard = false)
  private var sink = 0.0 // keeps replayed results alive

  def timeMs(name: String)(body: => Double): Double =
    Summary.median((1 to Reps).map { _ =>
      val id = tracer.begin(s"layer.$name")
      val t0 = System.nanoTime()
      sink += body
      val dt = (System.nanoTime() - t0) / 1e6
      tracer.end(id)
      dt
    })

  /** GP fit, MCMC fit, pool scoring and Cholesky on one training window. */
  def gp(xs: Seq[Array[Double]], ys: Seq[Double], pool: Seq[Array[Double]],
         nSamples: Int, nBurn: Int, thin: Int): Seq[Metric] = {
    val hypers = GaussianProcess.defaultLogHypers(kernel, xs.head.length)
    val fitMs = timeMs("gp.fit")(GaussianProcess.fit(kernel, xs, ys, hypers).logMarginalLikelihood)
    def mcmc() = EiMcmc.fitMarginalized(kernel, xs, ys, new Random(seed), nSamples, nBurn, thin)
    val mcmcMs = timeMs("gp.mcmc_fit")(mcmc().gps.size.toDouble)
    val model = mcmc()
    val best = ys.min
    val poolMs = timeMs("gp.ei_pool")(pool.map(model.ei(_, best)).sum)
    val k = kernelMatrix(xs, hypers)
    val cholMs = timeMs("linalg.cholesky")(Mat.cholesky(k)(0, 0))
    Seq(Metric("gp.fit_ms", fitMs, "ms"), Metric("gp.mcmc_fit_ms", mcmcMs, "ms"),
      Metric("gp.ei_pool_ms", poolMs, "ms"), Metric("linalg.cholesky_ms", cholMs, "ms"))
  }

  /** The matrix `GaussianProcess.fit` factors: kernel plus noise on the diagonal. */
  private def kernelMatrix(xs: Seq[Array[Double]], hypers: Array[Double]): Mat = {
    val n = xs.size
    val k = Mat.zeros(n, n)
    for (i <- 0 until n; j <- i until n) {
      val v = kernel(xs(i), xs(j), hypers)
      k(i, j) = v; k(j, i) = v
    }
    val noise2 = math.exp(2.0 * hypers.last)
    (0 until n).foreach(i => k(i, i) += noise2 + 1e-10)
    k
  }

  def gpFitRaw(xs: Seq[Array[Double]], ys: Seq[Double]): Metric = {
    val hypers = GaussianProcess.defaultLogHypers(kernel, xs.head.length)
    Metric("gp.fit_ms_raw38", timeMs("gp.fit_raw38")(GaussianProcess.fit(kernel, xs, ys, hypers).logMarginalLikelihood), "ms")
  }

  /** `Iicp.fit` on `samples`, and the fitted KPCA's cost per transformed vector. */
  def stats(space: ConfigSpace, samples: Seq[(repro.core.ConfigValues, Double)]): Seq[Metric] = {
    val fitMs = timeMs("stats.iicp_fit")(Iicp.fit(space, samples).nFeatures.toDouble)
    val model = Iicp.fit(space, samples)
    val rng = new Random(seed)
    val us = Seq.fill(416)(Array.fill(model.subspace.dim)(rng.nextDouble()))
    val perVecUs = timeMs("stats.kpca_transform")(us.map(u => model.featuresOfSubspaceUnit(u).sum).sum) * 1000.0 / us.size
    Seq(Metric("stats.iicp_fit_ms", fitMs, "ms"), Metric("stats.kpca_transform_us", perVecUs, "us"))
  }

  /** DAC's model step: `Gbrt.fit` (120 trees, depth 4), then `Ga.minimize`
    * on that model (population 40 × 50 generations).
    */
  def ml(space: ConfigSpace, trials: Seq[Trial], ds: Double): Seq[Metric] = {
    val xs = trials.map(t => space.encode(t.conf) :+ t.datasizeGB / 1000.0)
    val ys = trials.map(t => math.log(t.result.totalSeconds))
    def fit() = Gbrt.fit(xs, ys, nTrees = 120, maxDepth = 4)
    val fitMs = timeMs("ml.gbrt_fit")(fit().base)
    val model = fit()
    val gaMs = timeMs("ml.ga")(Ga.minimize(u => model.predict(u :+ ds / 1000.0), space.dim,
      new Random(seed), popSize = 40, generations = 50).bestFitness)
    Seq(Metric("ml.gbrt_fit_ms", fitMs, "ms"), Metric("ml.ga_ms", gaMs, "ms"))
  }

  /** All layer replays of one LOCAT session. The GP window is the last
    * min(80, n) RQA samples as LOCAT rebuilds them: QCSA full runs, then the
    * RQA runs, each as `Dagp.inputVec(iicp.features(conf), ds)` → log RQA s.
    */
  def locat(session: LocatSession, space: ConfigSpace, trials: Seq[Trial],
            nQcsa: Int, nIicp: Int): Seq[Metric] = {
    val rqa = session.qcsa.rqa
    val iicp = session.iicp
    val full = trials.filter(_.fullApp)
    val window = (full.take(nQcsa) ++ trials.filterNot(_.fullApp)).takeRight(80)
    val xs = window.map(t => Dagp.inputVec(iicp.features(t.conf), t.datasizeGB))
    val ys = window.map(t => math.log(rqa.map(t.result.perQuerySeconds).sum))
    val ds = trials.last.datasizeGB
    val rng = new Random(seed)
    val pool = Seq.fill(416)(Dagp.inputVec(iicp.featuresOfSubspaceUnit(
      Array.fill(iicp.subspace.dim)(rng.nextDouble())), ds))
    val qcsaRuns = full.take(nQcsa)
    gp(xs, ys, pool, nSamples = 4, nBurn = 10, thin = 3) ++
      Seq(gpFitRaw(qcsaRuns.map(t => Dagp.inputVec(space.encode(t.conf), t.datasizeGB)),
        qcsaRuns.map(t => math.log(t.result.totalSeconds)))) ++
      stats(space, full.take(nIicp).map(t => (t.conf, t.result.totalSeconds))) ++
      ml(space, full, ds)
  }
}
