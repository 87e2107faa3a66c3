package perfbench

/** One metric value as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Outcome of one timed tuning session.
  *
  * @param simQuality on simulator workloads: simulated optimization hours of
  *                   the session, and noise-free default ÷ best time at each
  *                   datasize it tuned
  * @param counters   workload-specific per-session numbers (core.*, baselines.*)
  */
final case class SessionOutcome(
    label: String,
    ledger: SessionLedger,
    simQuality: Option[(Double, Seq[Double])],
    counters: Map[String, Double],
)

/** A benchmark workload: a fixed round of tuning sessions that the harness
  * repeats for the measured time. Sessions reach the tuners only through
  * their public entry points, each with a fresh objective and tuner.
  */
trait Workload {
  def name: String

  /** Builds the inputs and runs one discarded warm-up session. */
  def setUp(tally: Tally): Unit

  /** How many times [[setUp]] runs; setup_s reports their median. */
  def setUpRepeats: Int

  /** Labels of the sessions of one round, in run order. */
  def sessions: Seq[String]

  /** Host seconds one round takes on a 4-core x86 box; `--seconds` divided
    * by it gives the number of rounds, so a run's work is fixed by
    * `--seed` and `--seconds` alone.
    */
  def nominalRoundSeconds: Double

  /** Runs session `i` of round `round` (seed [[Workload.roundSeed]]).
    * May throw; the harness counts that.
    */
  def runSession(i: Int, tracer: Tracer, tally: Tally, round: Int): SessionOutcome

  /** Correctness checks that need the timed sessions to be done. */
  def finalChecks(outcomes: Seq[SessionOutcome], tally: Tally): Unit = ()

  /** Per-layer metrics: counters of the timed sessions plus replays of each
    * layer's public functions on inputs rebuilt from the first round.
    */
  def layerMetrics(outcomes: Seq[SessionOutcome], tracer: Tracer): Seq[Metric]

  def close(): Unit = ()
}

object Workload {
  def apply(name: String, seed: Long, outDir: java.io.File): Workload = name match {
    case "locat-online" => new LocatOnline(seed)
    case "sota-sim"     => new SotaSim(seed)
    case "real-spark"   => new RealSpark(seed, outDir)
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }

  val names: Seq[String] = Seq("locat-online", "sota-sim", "real-spark")

  /** Seed of every session of round `round`: round 0 uses the run's seed
    * itself, so seed 42 reproduces the bench suites' cells; later rounds
    * use fresh seeds so that a run averages over tuner and noise draws.
    */
  def roundSeed(seed: Long, round: Int): Long = seed + round * 1000003L
}
