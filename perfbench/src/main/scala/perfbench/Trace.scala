package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One closed span: a named interval of host time and the span that caused it. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      attrs: Map[String, Double]) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. With `enabled = false` every call is a no-op, so
  * the untraced run that gives the end-to-end metrics pays nothing for it.
  * Spans nest by call order: a span opened while another is open is its child.
  */
final class Tracer(val enabled: Boolean) {
  private val closed = ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 1

  /** Opens a span and returns its id (0 when disabled). */
  def begin(name: String): Int =
    if (!enabled) 0
    else {
      val id = nextId
      nextId += 1
      open = (id, name, System.nanoTime()) :: open
      id
    }

  /** Closes the innermost open span, which must be `id`. */
  def end(id: Int, attrs: Map[String, Double] = Map.empty): Unit =
    if (enabled) {
      val t = System.nanoTime()
      val (top, name, start) = open.head
      require(top == id, s"span $id closed while span $top is open")
      open = open.tail
      closed += Span(id, open.headOption.map(_._1).getOrElse(0), name, start, t, attrs)
    }

  def spans: Seq[Span] = closed.toSeq

  def children(parent: Int): Seq[Span] = closed.filter(_.parent == parent).toSeq

  /** Self time of `s`: its duration minus what its child spans cover. */
  def selfNs(s: Span): Long =
    Summary.selfNs(s.startNs, s.endNs, children(s.id).map(c => (c.startNs, c.endNs)))

  /** Writes every span and the per-layer metrics as one JSON document. */
  def write(file: File, metrics: Seq[Metric]): Unit = {
    file.getParentFile.mkdirs()
    val t0 = closed.map(_.startNs).minOption.getOrElse(0L)
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("{\"metrics\": {")
      out.println(metrics.map(m => "  " + Json.metric(m)).mkString(",\n"))
      out.println("}, \"spans\": [")
      out.println(closed.sortBy(_.startNs).map { s =>
        val attrs = s.attrs.map { case (k, v) => s"${Json.str(k)}: ${Json.num(v)}" }.mkString(", ")
        s"""  {"id": ${s.id}, "parent": ${s.parent}, "name": ${Json.str(s.name)}, """ +
          s""""start_us": ${(s.startNs - t0) / 1000}, "end_us": ${(s.endNs - t0) / 1000}, "attrs": {$attrs}}"""
      }.mkString(",\n"))
      out.println("]}")
    } finally out.close()
  }
}

object Json {
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  def metric(m: Metric): String = s"${str(m.name)}: {\"value\": ${num(m.value)}, \"unit\": ${str(m.unit)}}"
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}
