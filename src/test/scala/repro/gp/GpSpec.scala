package repro.gp

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GpSpec extends AnyFunSuite {

  private val seKernel = GpKernel.SquaredExp(ard = false)
  private val m52 = GpKernel.Matern52(ard = false)

  // --- LHS ------------------------------------------------------------------

  test("LHS returns n points of dimension d in [0,1]") {
    val pts = Lhs.sample(10, 4, new Random(1))
    assert(pts.size == 10)
    assert(pts.forall(_.length == 4))
    assert(pts.forall(_.forall(v => v >= 0.0 && v < 1.0)))
  }

  test("LHS stratifies: exactly one point per stratum per dimension") {
    val n = 16
    val pts = Lhs.sample(n, 3, new Random(2))
    (0 until 3).foreach { d =>
      val strata = pts.map(p => (p(d) * n).toInt).sorted
      assert(strata == (0 until n).toList, s"dim $d strata=$strata")
    }
  }

  test("LHS rejects invalid sizes") {
    intercept[IllegalArgumentException] { Lhs.sample(0, 3, new Random(1)) }
    intercept[IllegalArgumentException] { Lhs.sample(3, 0, new Random(1)) }
  }

  // --- kernels ---------------------------------------------------------------

  test("kernels are symmetric and maximal at zero distance") {
    val rng = new Random(3)
    val h = Array(0.2, math.log(0.4))
    for (_ <- 0 until 20; k <- Seq(seKernel, m52)) {
      val x = Array.fill(3)(rng.nextDouble())
      val y = Array.fill(3)(rng.nextDouble())
      assert(math.abs(k(x, y, h) - k(y, x, h)) < 1e-12)
      assert(k(x, x, h) >= k(x, y, h) - 1e-12)
    }
  }

  test("squared-exp kernel closed form at unit distance") {
    val h = Array(0.0, 0.0) // σf=1, ℓ=1
    val v = seKernel(Array(0.0), Array(1.0), h)
    assert(math.abs(v - math.exp(-0.5)) < 1e-12)
  }

  test("ARD kernel uses per-dimension lengthscales") {
    val k = GpKernel.SquaredExp(ard = true)
    // tiny lengthscale in dim 0, huge in dim 1
    val h = Array(0.0, math.log(0.01), math.log(100.0))
    val near = k(Array(0.0, 0.0), Array(0.0, 1.0), h) // moves only in the "ignored" dim
    val far = k(Array(0.0, 0.0), Array(0.1, 0.0), h)  // moves in the sensitive dim
    assert(near > 0.99 && far < 0.01)
    assert(k.nHypers(2) == 3)
  }

  test("Matern52 decays slower than squared-exp at long range") {
    val h = Array(0.0, 0.0)
    val x = Array(0.0); val y = Array(3.0)
    assert(m52(x, y, h) > seKernel(x, y, h))
  }

  // --- GP regression -----------------------------------------------------------

  test("GP interpolates training points with tiny noise") {
    val xs = Seq(Array(0.1), Array(0.4), Array(0.7), Array(0.95))
    val ys = xs.map(x => math.sin(x(0) * 6))
    val h = Array(0.0, math.log(0.3), math.log(1e-3))
    val gp = GaussianProcess.fit(seKernel, xs, ys, h)
    xs.zip(ys).foreach { case (x, y) =>
      val (mu, sd) = gp.predict(x)
      assert(math.abs(mu - y) < 1e-2, s"x=${x(0)} mu=$mu y=$y")
      assert(sd < 0.1)
    }
  }

  test("GP predictive uncertainty grows away from data") {
    val xs = Seq(Array(0.4), Array(0.5), Array(0.6))
    val ys = Seq(1.0, 1.2, 0.9)
    val gp = GaussianProcess.fit(seKernel, xs, ys, Array(0.0, math.log(0.1), math.log(0.01)))
    val (_, sdNear) = gp.predict(Array(0.5))
    val (_, sdFar) = gp.predict(Array(0.0))
    assert(sdFar > sdNear * 2)
  }

  test("GP fits a sine with low out-of-sample error") {
    val rng = new Random(5)
    val xs = (0 until 25).map(_ => Array(rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 2 * math.Pi))
    val gp = GaussianProcess.fit(m52, xs, ys, Array(0.0, math.log(0.2), math.log(0.05)))
    val err = (0 until 50).map { i =>
      val x = i / 49.0
      val (mu, _) = gp.predict(Array(x))
      math.abs(mu - math.sin(x * 2 * math.Pi))
    }.max
    assert(err < 0.25, s"max err $err")
  }

  test("GP handles constant targets (zero variance) without NaN") {
    val xs = Seq(Array(0.1), Array(0.5), Array(0.9))
    val gp = GaussianProcess.fit(seKernel, xs, Seq(5.0, 5.0, 5.0),
      GaussianProcess.defaultLogHypers(seKernel, 1))
    val (mu, sd) = gp.predict(Array(0.3))
    assert(!mu.isNaN && !sd.isNaN)
    assert(math.abs(mu - 5.0) < 0.5)
  }

  test("logMarginalLikelihood prefers the true lengthscale over absurd ones") {
    val rng = new Random(6)
    val xs = (0 until 30).map(_ => Array(rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 2 * math.Pi) + rng.nextGaussian() * 0.05)
    def lml(logL: Double) =
      GaussianProcess.fit(seKernel, xs, ys, Array(0.0, logL, math.log(0.05))).logMarginalLikelihood
    assert(lml(math.log(0.2)) > lml(math.log(1e-3)))
    assert(lml(math.log(0.2)) > lml(math.log(100.0)))
  }

  test("GP fit validates hyperparameter count") {
    intercept[IllegalArgumentException] {
      GaussianProcess.fit(seKernel, Seq(Array(0.5)), Seq(1.0), Array(0.0))
    }
  }

  // --- EI + MCMC ---------------------------------------------------------------

  test("EI is non-negative and higher at promising points") {
    val xs = Seq(Array(0.2), Array(0.5), Array(0.8))
    val ys = Seq(5.0, 3.0, 4.0) // minimum at 0.5
    val model = EiMcmc.fitMarginalized(m52, xs, ys, new Random(7), nSamples = 3, nBurn = 5)
    val best = ys.min
    val eiAtKnownBad = model.ei(Array(0.2), best)
    val eiNearMin = model.ei(Array(0.55), best)
    assert(eiAtKnownBad >= 0.0 && eiNearMin >= 0.0)
    assert(eiNearMin > eiAtKnownBad * 0.5) // promising region scores at least comparably
  }

  test("marginalized predict blends GP samples without NaN") {
    val rng = new Random(8)
    val xs = (0 until 12).map(_ => Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => x(0) * 2 + x(1))
    val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 4, nBurn = 8)
    val (mu, sd) = model.predict(Array(0.5, 0.5))
    assert(!mu.isNaN && !sd.isNaN && sd >= 0)
    assert(model.gps.size == 4)
  }

  test("candidatePool: nRandom uniform points, then clamped steps around the incumbent, sigmas in turn") {
    val inc = Array(0.02, 0.98, 0.5)
    val sigmas = Seq(0.3, 0.01)
    val pool = EiMcmc.candidatePool(3, new Random(9), nRandom = 5, Some(inc), nLocal = 40, sigmas)
    assert(pool.size == 45)
    assert(pool.forall(c => c.length == 3 && c.forall(v => v >= 0.0 && v <= 1.0)))
    assert(pool.drop(5).exists(_.exists(v => v == 0.0 || v == 1.0)), "steps near the edges are clamped")
    // same draws, same order: uniform points first, then step j with sigmas(j % 2)
    val rng = new Random(9)
    val random = Seq.fill(5)(Seq.fill(3)(rng.nextDouble()))
    val local = (0 until 40).map(j => inc.toSeq.map(v => math.min(1.0, math.max(0.0, v + rng.nextGaussian() * sigmas(j % 2)))))
    assert(pool.map(_.toSeq) == random ++ local)
    assert(EiMcmc.candidatePool(3, new Random(9), nRandom = 5, None, nLocal = 40, sigmas).map(_.toSeq) == random)
  }

  private def quadraticModel(rng: Random): (EiMcmc.Marginalized, Double) = {
    val xs = (0 until 10).map(_ => Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => (x(0) - 0.3) * (x(0) - 0.3) + x(1))
    (EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 3, nBurn = 5), ys.min)
  }

  test("argmaxEi returns a point in the unit cube with non-negative EI") {
    val rng = new Random(9)
    val (model, best) = quadraticModel(rng)
    val pool = EiMcmc.candidatePool(2, rng, nRandom = 256, Some(Array(0.0, 1.0)), nLocal = 64, Seq(0.08))
    val (cand, ei) = EiMcmc.argmaxEi(model, best, pool).get
    assert(cand.forall(v => v >= 0.0 && v <= 1.0))
    assert(ei >= 0.0)
  }

  test("argmaxEi returns None when feasible rejects every candidate") {
    val rng = new Random(11)
    val (model, best) = quadraticModel(rng)
    val pool = EiMcmc.candidatePool(2, rng, nRandom = 20, None, nLocal = 0, Seq(0.08))
    assert(EiMcmc.argmaxEi(model, best, pool, feasible = _ => false).isEmpty)
    assert(EiMcmc.argmaxEi(model, best, Seq.empty).isEmpty)
  }

  test("argmaxEi scores toInput(candidate), skips infeasible ones, and the first maximum wins on ties") {
    val rng = new Random(12)
    val (model, best) = quadraticModel(rng)
    val pool = EiMcmc.candidatePool(2, rng, nRandom = 30, None, nLocal = 0, Seq(0.08))
    val (top, topEi) = EiMcmc.argmaxEi(model, best, pool).get
    assert(topEi == pool.map(model.ei(_, best)).max && topEi >= 0.0)
    val twin = top.clone()
    val tied = pool.filterNot(_ eq top) ++ Seq(top, twin)
    assert(EiMcmc.argmaxEi(model, best, tied).get._1 eq top)
    assert(EiMcmc.argmaxEi(model, best, tied, feasible = c => !(c eq top)).get._1 eq twin)
    // toInput maps a 1-d candidate onto the model's 2-d input
    val oneD = Seq(Array(0.9), Array(0.3))
    val (x, e) = EiMcmc.argmaxEi(model, best, oneD, c => c :+ 0.0).get
    assert((x eq oneD.maxBy(c => model.ei(c :+ 0.0, best))) && e == model.ei(x :+ 0.0, best))
  }

  test("BO loop with EI-MCMC converges on a 2-d quadratic") {
    val rng = new Random(10)
    def f(x: Array[Double]): Double = (x(0) - 0.7) * (x(0) - 0.7) + (x(1) - 0.3) * (x(1) - 0.3)
    var xs = Lhs.sample(3, 2, rng).toVector
    var ys = xs.map(f).toVector
    for (_ <- 0 until 15) {
      val model = EiMcmc.fitMarginalized(m52, xs, ys, rng, nSamples = 3, nBurn = 6)
      val pool = EiMcmc.candidatePool(2, rng, nRandom = 256, Some(xs(ys.indexOf(ys.min))), nLocal = 64, Seq(0.08))
      val (cand, _) = EiMcmc.argmaxEi(model, ys.min, pool).get
      xs :+= cand; ys :+= f(cand)
    }
    assert(ys.min < 0.02, s"BO best ${ys.min}") // random search would rarely get here in 18 evals
  }
}
