package perfbench

/** The benchmark's own arithmetic. Kept free of I/O so the tests can pin it. */
object Summary {

  /** A percentile is reported only when at least this many samples lie beyond it. */
  val MinBeyond = 10

  /** Nearest-rank `p`-th percentile (0 < p < 100) of `xs`, or `None` when
    * fewer than [[MinBeyond]] samples rank above it.
    */
  def percentile(xs: Seq[Double], p: Double): Option[Double] = {
    require(p > 0 && p < 100, s"percentile must lie in (0, 100), got $p")
    val n = xs.size
    val rank = math.max(1, math.ceil(p / 100.0 * n).toInt)
    if (n - rank < MinBeyond) None else Some(xs.sorted.apply(rank - 1))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), "geomean needs positive samples")
    math.exp(xs.map(math.log).sum / xs.size)
  }

  /** Self time of the span `[start, end)`: its duration minus the part of it
    * covered by the union of its children's intervals.
    */
  def selfNs(start: Long, end: Long, children: Seq[(Long, Long)]): Long = {
    val clipped = children
      .map { case (s, e) => (math.max(s, start), math.min(e, end)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var curS = 0L
    var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) covered += curE - curS
    (end - start) - covered
  }

  /** `a` and `b` agree to a relative tolerance (sums taken in different orders). */
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))
}
