package qbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval of the traced run. `parent` is the id of the span
  * that was open when this one started (-1 for a root); spans of one query
  * share `query`.
  */
final class Span(val id: Int, val name: String, val parent: Int, val query: Int, val start: Long) {
  var end: Long = -1L
  def nanos: Long = end - start
}

/** In-memory span recorder for the benchmark's own calls into each layer.
  * Spans are kept until the run ends and then written out in one go, so
  * recording costs two `nanoTime` calls and one allocation per span.
  */
final class Tracer {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var open: List[Int] = Nil
  var query: Int = -1

  def span[T](name: String)(f: => T): T = {
    val s = new Span(spans.length, name, open.headOption.getOrElse(-1), query, System.nanoTime())
    spans += s
    open = s.id :: open
    try f
    finally {
      s.end = System.nanoTime()
      open = open.tail
    }
  }

  /** Total milliseconds of all spans named `name`. */
  def totalMs(name: String): Double = spans.iterator.filter(_.name == name).map(_.nanos).sum / 1e6

  /** Share of the spans named `name` that their direct children cover. */
  def coverFrac(name: String): Double = {
    val parents = spans.iterator.filter(_.name == name).map(s => s.id -> s).toMap
    val covered = spans.iterator.filter(s => parents.contains(s.parent)).map(_.nanos).sum
    covered.toDouble / math.max(1L, parents.valuesIterator.map(_.nanos).sum)
  }

  /** Spans as JSON lines; times are nanoseconds from the first span. */
  def jsonLines: Iterator[String] = {
    val t0 = spans.headOption.map(_.start).getOrElse(0L)
    spans.iterator.map { s =>
      Json.render(Json.obj(
        "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "query" -> s.query,
        "start_ns" -> (s.start - t0), "end_ns" -> (s.end - t0)))
    }
  }
}

/** Minimal JSON rendering for the benchmark's output. */
object Json {

  /** A JSON object whose keys keep the order given. */
  final case class Obj(fields: Seq[(String, Any)])

  def obj(fields: (String, Any)*): Obj = Obj(fields)

  def render(v: Any): String = v match {
    case Obj(fs)    => fs.map { case (k, x) => quote(k) + ": " + render(x) }.mkString("{", ", ", "}")
    case m: scala.collection.Map[_, _] => render(Obj(m.toSeq.map { case (k, x) => k.toString -> x }))
    case s: String  => quote(s)
    case b: Boolean => b.toString
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case xs: Iterable[_] => xs.map(render).mkString("[", ", ", "]")
    case other      => quote(String.valueOf(other))
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
