package repro.baselines

import repro.core.{ConfigSpace, ConfigValues, TrialLog, Tuner, TuningObjective, TuningResult}
import repro.gp.{EiMcmc, GpKernel}
import scala.util.Random

/** Shared plain GP-BO loop used by the SOTA baselines (Tuneful's search
  * phase, GBO-RL's guided BO). Unlike LOCAT it is NOT datasize-aware, always
  * executes the full application, and searches whatever space it is given.
  * Its trials are appended to the caller's `log`; the GP sees only those.
  *
  * @param candidateFilter optional predicate over decoded configs (GBO-RL's
  *                        analytical memory model prunes infeasible ones)
  * @param pinned          values merged over decoded candidates (Tuneful pins
  *                        non-significant parameters)
  */
object BoSearch {
  def run(log: TrialLog, space: ConfigSpace, ds: Double, rng: Random,
          nInit: Int, nIter: Int,
          pinned: Map[String, Double] = Map.empty,
          candidateFilter: ConfigValues => Boolean = _ => true): Unit = {
    val kernel = GpKernel.Matern52(ard = false)
    val first = log.trials.size

    def confOf(u: Array[Double]): ConfigValues = ConfigValues(space.decode(u).values ++ pinned)
    def feasible(u: Array[Double]): Boolean = candidateFilter(confOf(u))
    def eval(u: Array[Double]): Unit = log.run(confOf(u), ds)

    /** A random point satisfying the filter (bounded retries, then give up
      * on the constraint — never on the evaluation). */
    def filteredRandom(): Array[Double] = {
      var tries = 0
      var u = space.randomUnit(rng)
      while (!feasible(u) && tries < 500) { u = space.randomUnit(rng); tries += 1 }
      u
    }

    if (nInit > 0) space.lhsUnit(nInit, rng).foreach(u => eval(if (feasible(u)) u else filteredRandom()))
    if (log.trials.size == first) eval(filteredRandom()) // GP needs at least one point

    var it = 0
    while (it < nIter) {
      // GP training inputs are re-encoded from configs (bools/ints are exact)
      val window = log.trials.drop(first).takeRight(EiMcmc.TrainWindow)
      val xs = window.map(t => space.encode(t.conf))
      val ys = window.map(t => math.log(t.result.totalSeconds))
      val model = EiMcmc.fitMarginalized(kernel, xs, ys, rng, nSamples = 3, nBurn = 6, thin = 2)
      val best = ys.min
      val incumbent = xs(ys.indexOf(best))
      val pool = EiMcmc.candidatePool(space.dim, rng, nRandom = 120, Some(incumbent), nLocal = 40, Seq(0.08))
      val pick = EiMcmc.argmaxEi(model, best, pool, feasible = feasible).map(_._1)
      eval(pick.getOrElse(Array.fill(space.dim)(rng.nextDouble()))) // no feasible candidate: go random
      it += 1
    }
  }
}

/** Pure random search — a sanity baseline for tests, not a paper comparator. */
final class RandomSearch(budget: Int) extends Tuner {
  override def name: String = s"Random($budget)"
  override def tune(objective: TuningObjective, space: ConfigSpace, ds: Double, seed: Long): TuningResult = {
    val rng = new Random(seed)
    val log = new TrialLog(objective)
    (0 until budget).foreach(_ => log.run(space.random(rng), ds))
    log.result()
  }
}
