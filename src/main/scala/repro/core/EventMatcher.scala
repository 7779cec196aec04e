package repro.core

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.events.SystemEvent
import repro.saql.Ast._

/** The multi-event matcher: matches the stream against the event patterns
  * of a SAQL query, honouring temporal relationships (`with evt1 -> evt2`)
  * and implicit attribute relationships (the same variable re-used across
  * patterns joins on the entity's identity attributes).
  *
  * Each pattern compiles to a Catalyst predicate. One Spark job scans the
  * stream once, tagging each event with one flag per pattern, and collects
  * the candidates: the events some pattern matches. The sequence join runs
  * over those few candidates on the driver, as the companion SAQL engine
  * buffers candidate events for multi-event patterns: each next chain
  * element joins the partial matches on the shared-variable equalities
  * (a hash lookup) and the temporal ordering of adjacent chain elements.
  */
object EventMatcher {

  private val eventIndex: Map[String, Int] = SystemEvent.columns.zipWithIndex.toMap
  private val TsAt = eventIndex("ts")

  /** The patterns in join order: the temporal chain when it names every
    * pattern, else declaration order.
    */
  private def joinOrder(q: SaqlQuery): Seq[EventPattern] = q.temporal match {
    case Some(chain) if chain.toSet == q.patterns.map(_.alias).toSet =>
      chain.map(a => q.patterns.find(_.alias == a).get)
    case _ => q.patterns
  }

  /** How a pattern joins the partial matches of the patterns before it, by
    * their positions in the join order: `keys` are the shared-variable
    * identity equalities (earlier position, its event column, this
    * pattern's event column); the events at positions `after` must precede
    * this one's, those at `before` must follow it.
    */
  private final case class Step(keys: Seq[(Int, Int, Int)], after: Seq[Int],
                                before: Seq[Int])

  private def steps(q: SaqlQuery, order: Seq[EventPattern]): Seq[Step] = {
    val occ = q.varOccurrences
    val pos = order.map(_.alias).zipWithIndex.toMap
    val chainPairs = q.temporal.map(c => c.zip(c.tail)).getOrElse(Nil)
    def column(role: String, kind: EntityKind, attr: String): Int =
      eventIndex(Columns.entityColumn(kind, role, attr))
    order.zipWithIndex.tail.map { case (p, i) =>
      def earlier(alias: String): Boolean = pos.get(alias).exists(_ < i)
      val keys = for {
        (_, occs) <- occ.toSeq
        (aR, roleR, declR) <- occs if aR == p.alias
        (aL, roleL, declL) <- occs if earlier(aL)
        idAttr <- Columns.identityAttrs(declR.kind)
      } yield (pos(aL), column(roleL, declL.kind, idAttr), column(roleR, declR.kind, idAttr))
      Step(keys,
        chainPairs.collect { case (a, b) if b == p.alias && earlier(a) => pos(a) },
        chainPairs.collect { case (a, b) if a == p.alias && earlier(b) => pos(b) })
    }
  }

  /** The matches of a query on the driver: `rows` in `schema`, the
    * alias-prefixed event columns of each pattern in join order, then
    * `__alert_ts`.
    */
  private[core] final case class Matches(schema: StructType, rows: Seq[Row])

  /** All matches of the query's patterns, computed with one Spark job. */
  private[core] def collectMatches(events: DataFrame, q: SaqlQuery): Matches = {
    val order = joinOrder(q)
    val joinSteps = steps(q, order)
    val flags = order.indices.map(i => s"__p$i")
    val tagged = events
      .select(SystemEvent.columns.map(col) ++ order.zip(flags).map { case (p, f) =>
        Columns.patternPredicate(q, p).as(f)
      }: _*)
      .filter(flags.map(col).reduce(_ || _))
    val n = SystemEvent.columns.size
    val tagRows = tagged.collect()
    // A null flag (a constraint on a null attribute) is not a match.
    val candidates = order.indices.map(i =>
      tagRows.filter(r => !r.isNullAt(n + i) && r.getBoolean(n + i)).toSeq)

    // Spark `===` semantics: a key with a null component equals nothing.
    def nonNull(k: Seq[Any]): Option[Seq[Any]] = if (k.contains(null)) None else Some(k)
    val found = joinSteps.zip(candidates.tail)
      .foldLeft(candidates.head.map(Vector(_))) { case (partial, (s, right)) =>
        val probe: Vector[Row] => Seq[Row] =
          if (s.keys.isEmpty) _ => right
          else {
            val byKey = right
              .flatMap(r => nonNull(s.keys.map(k => r.get(k._3))).map(_ -> r))
              .groupMap(_._1)(_._2)
            m => nonNull(s.keys.map { case (at, c, _) => m(at).get(c) })
              .fold(Seq.empty[Row])(byKey.getOrElse(_, Nil))
          }
        partial.flatMap { m =>
          probe(m).filter { r =>
            val ts = r.getLong(TsAt)
            s.after.forall(m(_).getLong(TsAt) < ts) && s.before.forall(ts < m(_).getLong(TsAt))
          }.map(m :+ _)
        }
      }

    val eventFields = tagged.schema.fields.take(n)
    val schema = StructType(order.flatMap(p =>
      eventFields.map(f => f.copy(name = s"${p.alias}__${f.name}"))) :+
      StructField("__alert_ts", LongType, nullable = false))
    Matches(schema, found.map(m =>
      Row.fromSeq(m.flatMap(r => (0 until n).map(r.get)) :+ m.map(_.getLong(TsAt)).max)))
  }

  /** All matches of the query's patterns: one row per matched event
    * sequence, with alias-prefixed columns, plus `__alert_ts` = timestamp
    * of the last event in the match (detection time). The join runs on
    * the driver; the result is a local DataFrame.
    */
  def matches(events: DataFrame, q: SaqlQuery): DataFrame = {
    val m = collectMatches(events, q)
    events.sparkSession.createDataFrame(m.rows.asJava, m.schema)
  }

  /** The match-output column a return item's [[FieldRef]] reads: the
    * alias-prefixed column of the variable's first occurrence (attribute
    * defaulted per entity kind — the paper's context-aware shortcut).
    */
  private[core] def returnField(q: SaqlQuery, ref: FieldRef): String =
    q.varOccurrences.get(ref.varName) match {
      case Some(occs) =>
        val (alias, role, decl) = occs.head
        s"${alias}__${Columns.entityColumn(decl.kind, role, ref.attr.getOrElse(decl.kind.defaultAttr))}"
      case None if q.patterns.exists(_.alias == ref.varName) =>
        val attr = ref.attr.getOrElse(
          throw new IllegalArgumentException(s"alias '${ref.varName}' needs an attribute"))
        val c = attr match {
          case "amount" => "amount"
          case "ts" | "time" => "ts"
          case "agentid" => "agentid"
          case "op" => "op"
          case a => throw new IllegalArgumentException(s"unknown event attribute '$a'")
        }
        s"${ref.varName}__$c"
      case None =>
        throw new IllegalArgumentException(s"unknown return variable '${ref.varName}'")
    }

  /** Resolve a return item's [[FieldRef]] against the match output. */
  def returnColumn(q: SaqlQuery, ref: FieldRef): Column =
    col(returnField(q, ref)).as(ref.colName)

  /** The query's `return` items; a rule query returns attributes only. */
  private[core] def returnRefs(q: SaqlQuery): Seq[FieldRef] = q.ret.items.map {
    case AttrRef(ref) => ref
    case other =>
      throw new IllegalArgumentException(
        s"rule-based return items must be entity/event attributes, got $other")
  }

  /** Project matches to the query's `return` items (+ `__alert_ts`). With
    * `distinct`, keeps the earliest alert time per distinct row, so
    * detection latency reflects the first match.
    */
  def project(matchesDf: DataFrame, q: SaqlQuery): DataFrame = {
    val refs = returnRefs(q)
    val projected = matchesDf.select(refs.map(returnColumn(q, _)) :+ col("__alert_ts"): _*)
    if (q.ret.distinct)
      projected.groupBy(refs.map(r => col(r.colName)): _*)
        .agg(min(col("__alert_ts")).as("__alert_ts"))
    else projected
  }
}
