package repro.gp

import repro.stats.Stats
import scala.util.Random

/** Expected Improvement with MCMC hyperparameter marginalization
  * (Snoek et al. 2012), LOCAT's acquisition function (paper §3.4).
  *
  * Instead of point-estimating the GP hyperparameters, we draw `nSamples`
  * hyperparameter vectors from their posterior (Metropolis–Hastings on the
  * log marginal likelihood with a broad N(0, 2²) log-space prior) and average
  * the EI under each fitted GP.
  */
object EiMcmc {

  /** One GP per posterior hyperparameter sample. */
  final case class Marginalized(gps: Seq[GaussianProcess]) {
    def predict(x: Array[Double]): (Double, Double) = {
      // Mixture moments: mean of means; variance = mean(var + mean²) − mean²
      val ms = gps.map(_.predict(x))
      val mu = ms.map(_._1).sum / ms.size
      val second = ms.map { case (m, s) => s * s + m * m }.sum / ms.size
      (mu, math.sqrt(math.max(second - mu * mu, 1e-12)))
    }

    /** Expected improvement (minimization) averaged over hyper samples. */
    def ei(x: Array[Double], best: Double): Double = {
      var tot = 0.0
      gps.foreach { gp =>
        val (mu, sd) = gp.predict(x)
        val imp = best - mu
        tot += (if (sd < 1e-12) math.max(imp, 0.0)
                else imp * Stats.normCdf(imp / sd) + sd * Stats.normPdf(imp / sd))
      }
      tot / gps.size
    }
  }

  /** MH-sample `nSamples` hyper vectors and fit one GP each.
    *
    * `nBurn` steps of burn-in, then `thin`-spaced draws. Each likelihood
    * evaluation refits a Cholesky (O(n³)), so callers cap the training-set
    * size to the last [[TrainWindow]] observations.
    */
  def fitMarginalized(kernel: GpKernel, x: Seq[Array[Double]], y: Seq[Double], rng: Random,
                      nSamples: Int = 5, nBurn: Int = 15, thin: Int = 3): Marginalized = {
    val d = x.head.length
    var current = GaussianProcess.defaultLogHypers(kernel, d)
    var currentGp = GaussianProcess.fit(kernel, x, y, current)
    var currentLp = logPosterior(currentGp)
    val draws = scala.collection.mutable.ArrayBuffer.empty[GaussianProcess]
    val totalSteps = nBurn + nSamples * thin
    var step = 0
    while (step < totalSteps) {
      val proposal = current.map(h => h + rng.nextGaussian() * 0.25) // random-walk step in log-hyper space
      val tryGp =
        try Some(GaussianProcess.fit(kernel, x, y, proposal))
        catch { case _: IllegalStateException => None }
      tryGp.foreach { gp =>
        val lp = logPosterior(gp)
        if (math.log(rng.nextDouble() + 1e-300) < lp - currentLp) {
          current = proposal; currentGp = gp; currentLp = lp
        }
      }
      step += 1
      if (step > nBurn && (step - nBurn) % thin == 0) draws += currentGp
    }
    if (draws.isEmpty) draws += currentGp
    Marginalized(draws.toSeq)
  }

  private def logPosterior(gp: GaussianProcess): Double = {
    // broad zero-mean Gaussian prior over log-hypers, sd = 2
    val prior = gp.logHypers.map(h => -0.5 * h * h / 4.0).sum
    gp.logMarginalLikelihood + prior
  }

  /** Training-set cap of every BO loop: fit on the most recent observations. */
  val TrainWindow: Int = 80

  /** EI candidate pool in the unit cube: `nRandom` uniform points, then —
    * given an incumbent — `nLocal` Gaussian steps around it, clamped to
    * [0,1], the j-th step with standard deviation `sigmas(j % sigmas.size)`.
    */
  def candidatePool(d: Int, rng: Random, nRandom: Int, incumbent: Option[Array[Double]],
                    nLocal: Int, sigmas: Seq[Double]): Vector[Array[Double]] = {
    val random = Vector.fill(nRandom)(Array.fill(d)(rng.nextDouble()))
    val local = incumbent.fold(Vector.empty[Array[Double]]) { inc =>
      Vector.tabulate(nLocal) { j =>
        val sigma = sigmas(j % sigmas.size)
        inc.map(v => math.min(1.0, math.max(0.0, v + rng.nextGaussian() * sigma)))
      }
    }
    random ++ local
  }

  /** The `feasible` pool member with the highest EI at `toInput(candidate)`,
    * and that EI; the first strict maximum wins. `None` when no feasible
    * candidate has an EI above −∞.
    */
  def argmaxEi(model: Marginalized, best: Double, pool: Seq[Array[Double]],
               toInput: Array[Double] => Array[Double] = identity,
               feasible: Array[Double] => Boolean = _ => true): Option[(Array[Double], Double)] = {
    var bestX: Array[Double] = null
    var bestEi = Double.NegativeInfinity
    pool.foreach { c =>
      if (feasible(c)) {
        val e = model.ei(toInput(c), best)
        if (e > bestEi) { bestEi = e; bestX = c }
      }
    }
    Option(bestX).map(x => (x, bestEi))
  }
}
