package repro.core

/** Result of executing a (possibly query-reduced) Spark SQL application once.
  *
  * @param perQuerySeconds execution time of each executed query, in order
  * @param gcSeconds       total JVM GC time attributed to the run
  */
final case class ExecResult(perQuerySeconds: Map[String, Double], gcSeconds: Double) {
  /** Total application wall time: queries run sequentially. */
  def totalSeconds: Double = perQuerySeconds.values.sum
}

/** What every tuner optimizes against: run the application with a
  * configuration at a datasize, optionally restricted to a query subset
  * (LOCAT's RQA), and observe execution metrics.
  *
  * Implementations: `repro.cluster.SparkClusterSimulator` (paper-scale
  * experiments) and `repro.sparkexec.SparkObjective` (real Spark session).
  */
trait TuningObjective {
  /** Query identifiers of the full application, in execution order. */
  def queries: Seq[String]

  /** Execute once. `subset = None` runs the full application. */
  def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]] = None): ExecResult

  /** Human-readable workload name (bench reporting). */
  def workloadName: String
}

/** One observed execution during tuning. */
final case class Trial(conf: ConfigValues, datasizeGB: Double, result: ExecResult, fullApp: Boolean) {
  /** Wall time the tuner *paid* for this observation (the RQA costs less
    * than the full app). */
  def costSeconds: Double = result.totalSeconds
}

/** A tuner's execution history: the one place that runs the objective and
  * records what each execution cost.
  */
final class TrialLog(objective: TuningObjective) {
  private var all = Vector.empty[Trial]
  private var paid = 0.0

  /** Execute once, record the trial and its cost. */
  def run(conf: ConfigValues, ds: Double, subset: Option[Seq[String]] = None): Trial =
    record(Trial(conf, ds, objective.run(conf, ds, subset), fullApp = subset.isEmpty))

  /** Record a trial already paid for elsewhere (e.g. by a wrapped tuner). */
  def record(t: Trial): Trial = {
    all :+= t
    paid += t.costSeconds
    t
  }

  /** Every recorded trial, in execution order. */
  def trials: Vector[Trial] = all
  /** Total execution seconds paid, in trial order. */
  def cost: Double = paid
  /** Fastest observed trial (first on ties). */
  def best: Trial = all.minBy(_.result.totalSeconds)

  /** Result that recommends `chosen`, with the whole history and its cost. */
  def result(chosen: Trial = best): TuningResult =
    TuningResult(chosen.conf, chosen.result.totalSeconds, cost, all)
}

/** Outcome of a tuning session.
  *
  * @param bestConf        best configuration found (full parameter set)
  * @param bestTimeSeconds full-application time of `bestConf` as observed/verified
  * @param optimizationSeconds total execution time spent to find it (the
  *                        paper's "optimization time"), excluding negligible
  *                        model-fitting CPU
  * @param trials          full history
  */
final case class TuningResult(
    bestConf: ConfigValues,
    bestTimeSeconds: Double,
    optimizationSeconds: Double,
    trials: Seq[Trial],
)

/** A configuration auto-tuner (LOCAT or one of the four SOTA baselines). */
trait Tuner {
  def name: String

  /** Tune `objective` on `space` for input size `datasizeGB`. */
  def tune(objective: TuningObjective, space: ConfigSpace, datasizeGB: Double, seed: Long): TuningResult
}
