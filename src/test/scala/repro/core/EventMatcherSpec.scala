package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.{Oracle, SparkSpec}
import repro.events.{AttackTrace, MonitoringData}
import repro.saql.Parser

/** Multi-event matcher: one tagged candidate scan and the driver-side
  * sequence join, oracle-checked on DuckDB.
  */
class EventMatcherSpec extends SparkSpec {

  private lazy val stream =
    AttackTrace.withBackground(spark, sf = 0.002, seed = 0, attackStartMs = 1_800_000L)
      .cache()

  test("single-pattern match finds the phishing attachment write") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%outlook.exe"] write file f1["%.xlsm"] as evt1
        |return distinct p1, f1""".stripMargin, "r1")
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("f1") == "/home/user/mail/invoice.xlsm")
  }

  test("two-pattern sequence with subject/object variable hand-off") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin, "r2")
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("p2") == "wscript.exe")
  }

  test("temporal order is enforced: reversed chain finds nothing") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt2 -> evt1
        |return distinct p1, p2, f1""".stripMargin, "r2rev")
    assert(EventMatcher.matches(stream, q).count() == 0)
  }

  test("the paper's Query 1 (4-pattern chain) matches exactly the exfiltration") {
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    assert(out.length == 1)
    val r = out.head
    assert(r.getAs[String]("p1") == "cmd.exe")
    assert(r.getAs[String]("p2") == "osql.exe")
    assert(r.getAs[String]("p3") == "sqlservr.exe")
    assert(r.getAs[String]("p4") == "sbblv.exe")
    assert(r.getAs[String]("i1") == AttackTrace.AttackerIp)
    assert(r.getAs[String]("f1") == "/data/backup1.dmp")
  }

  test("alert timestamp is the last event of the first full match") {
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    // First evt4 after evt3 (ts=1.8M+1.55M... the 1,560,000 offset exfil write).
    assert(out.head.getAs[Long]("__alert_ts") == 1_800_000L + 1_560_000L)
  }

  test("global agent constraint isolates hosts") {
    val q = Parser.parse(
      """agentid = 3
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin)
    assert(EventMatcher.matches(stream, q).count() == 0)
  }

  test("oracle: single-pattern projection equals DuckDB") {
    val q = Parser.parse(
      """proc p1["%gsecdump.exe"] read file f1 as evt1
        |return distinct p1, f1""".stripMargin)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
      .select("p1", "f1") // oracle compares scalar projections
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT subj_exe AS p1, file_name AS f1
        |FROM events
        |WHERE event_type = 'file' AND op = 'read' AND subj_exe LIKE '%gsecdump.exe'
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: two-pattern sequence join equals DuckDB") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1 as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
      .select("p1", "p2", "f1")
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT a.subj_exe AS p1, a.obj_exe AS p2, b.file_name AS f1
        |FROM events a, events b
        |WHERE a.event_type = 'process' AND a.op = 'start'
        |  AND a.subj_exe LIKE '%excel.exe' AND CAST(a.agentid AS BIGINT) = 0
        |  AND b.event_type = 'file' AND b.op = 'write'
        |  AND CAST(b.agentid AS BIGINT) = 0
        |  AND a.obj_exe = b.subj_exe
        |  AND CAST(a.obj_pid AS BIGINT) = CAST(b.subj_pid AS BIGINT)
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: file-variable join (same f1 in two patterns) equals DuckDB") {
    val q = Parser.parse(
      """agentid = 1
        |proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
        |proc p4["%sbblv.exe"] read file f1 as evt3
        |with evt2 -> evt3
        |return distinct p3, f1, p4""".stripMargin)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
      .select("p3", "f1", "p4")
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT a.subj_exe AS p3, a.file_name AS f1, b.subj_exe AS p4
        |FROM events a, events b
        |WHERE a.event_type = 'file' AND a.op = 'write'
        |  AND a.subj_exe LIKE '%sqlservr.exe' AND a.file_name LIKE '%backup1.dmp'
        |  AND CAST(a.agentid AS BIGINT) = 1
        |  AND b.event_type = 'file' AND b.op = 'read'
        |  AND b.subj_exe LIKE '%sbblv.exe' AND b.file_name LIKE '%backup1.dmp'
        |  AND CAST(b.agentid AS BIGINT) = 1
        |  AND a.file_name = b.file_name
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |""".stripMargin,
      "events" -> stream)
  }

  test("no matches on benign-only stream for attack-specific patterns") {
    val benign = MonitoringData.events(spark, sf = 0.002, seed = 0)
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    assert(EventMatcher.matches(benign, q).count() == 0)
  }

  test("ip identity join: same i1 across patterns joins on dstip") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%backdoor.exe"] write ip i1 as evt1
        |proc p2["%gsecdump.exe"] write ip i1 as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, i1""".stripMargin)
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("i1") == AttackTrace.AttackerIp)
  }

  test("distinct collapses repeated matches and keeps earliest alert ts") {
    val q = Parser.parse(
      """agentid = 1
        |proc p4["%sbblv.exe"] write ip i1[dstip="203.0.113.129"] as evt1
        |return distinct p4, i1""".stripMargin)
    val out = EventMatcher.project(EventMatcher.matches(stream, q), q).collect()
    assert(out.length == 1) // 5 events collapse to one distinct row
    assert(out.head.getAs[Long]("__alert_ts") == 1_800_000L + 930_000L)
  }

  test("oracle: the 3-pattern r4 chain, with alert time, equals DuckDB") {
    val q = repro.queries.DemoQueries.r4Penetration(1L)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
    assert(got.count() == 1)
    Oracle.assertEquivalent(got,
      """SELECT a.subj_exe AS p1, a.file_name AS f1, b.obj_exe AS p2, c.dst_ip AS i1,
        |  MIN(GREATEST(CAST(a.ts AS BIGINT), CAST(b.ts AS BIGINT),
        |               CAST(c.ts AS BIGINT))) AS __alert_ts
        |FROM events a, events b, events c
        |WHERE a.event_type = 'file' AND a.op = 'write'
        |  AND a.subj_exe LIKE '%cscript.exe' AND a.file_name LIKE '%sbblv.exe'
        |  AND CAST(a.agentid AS BIGINT) = 1
        |  AND b.event_type = 'process' AND b.op = 'start'
        |  AND b.subj_exe LIKE '%cscript.exe' AND b.obj_exe LIKE '%sbblv.exe'
        |  AND CAST(b.agentid AS BIGINT) = 1
        |  AND c.event_type = 'network' AND c.op = 'write'
        |  AND c.subj_exe LIKE '%sbblv.exe' AND c.dst_ip = '203.0.113.129'
        |  AND CAST(c.agentid AS BIGINT) = 1
        |  AND a.subj_exe = b.subj_exe
        |  AND CAST(a.subj_pid AS BIGINT) = CAST(b.subj_pid AS BIGINT)
        |  AND b.obj_exe = c.subj_exe
        |  AND CAST(b.obj_pid AS BIGINT) = CAST(c.subj_pid AS BIGINT)
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |  AND CAST(b.ts AS BIGINT) < CAST(c.ts AS BIGINT)
        |GROUP BY 1, 2, 3, 4
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: the 4-pattern r5 chain, with a variable-free pair, equals DuckDB") {
    // evt1 -> evt2 shares no variable: only the temporal order joins them.
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
    assert(got.count() == 1)
    Oracle.assertEquivalent(got,
      """SELECT a.subj_exe AS p1, a.obj_exe AS p2, b.subj_exe AS p3,
        |  b.file_name AS f1, c.subj_exe AS p4, d.dst_ip AS i1,
        |  MIN(GREATEST(CAST(a.ts AS BIGINT), CAST(b.ts AS BIGINT),
        |               CAST(c.ts AS BIGINT), CAST(d.ts AS BIGINT))) AS __alert_ts
        |FROM events a, events b, events c, events d
        |WHERE a.event_type = 'process' AND a.op = 'start'
        |  AND a.subj_exe LIKE '%cmd.exe' AND a.obj_exe LIKE '%osql.exe'
        |  AND CAST(a.agentid AS BIGINT) = 1
        |  AND b.event_type = 'file' AND b.op = 'write'
        |  AND b.subj_exe LIKE '%sqlservr.exe' AND b.file_name LIKE '%backup1.dmp'
        |  AND CAST(b.agentid AS BIGINT) = 1
        |  AND c.event_type = 'file' AND c.op = 'read'
        |  AND c.subj_exe LIKE '%sbblv.exe' AND c.file_name LIKE '%backup1.dmp'
        |  AND CAST(c.agentid AS BIGINT) = 1
        |  AND d.event_type = 'network' AND d.op IN ('read', 'write')
        |  AND d.subj_exe LIKE '%sbblv.exe' AND d.dst_ip = '203.0.113.129'
        |  AND CAST(d.agentid AS BIGINT) = 1
        |  AND b.file_name = c.file_name
        |  AND c.subj_exe = d.subj_exe
        |  AND CAST(c.subj_pid AS BIGINT) = CAST(d.subj_pid AS BIGINT)
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |  AND CAST(b.ts AS BIGINT) < CAST(c.ts AS BIGINT)
        |  AND CAST(c.ts AS BIGINT) < CAST(d.ts AS BIGINT)
        |GROUP BY 1, 2, 3, 4, 5, 6
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: a non-distinct return keeps every match, duplicates included") {
    val q = Parser.parse(
      """agentid = 1
        |proc p3["%sqlservr.exe"] write ip i1[dstip="203.0.113.129"] as evt1
        |proc p4["%sbblv.exe"] write ip i2[dstip="203.0.113.129"] as evt2
        |with evt1 -> evt2
        |return p3, p4, i2""".stripMargin)
    val got = EventMatcher.project(EventMatcher.matches(stream, q), q)
    assert(got.count() > got.distinct().count()) // the projection repeats rows
    Oracle.assertEquivalent(got,
      """SELECT a.subj_exe AS p3, b.subj_exe AS p4, b.dst_ip AS i2,
        |  GREATEST(CAST(a.ts AS BIGINT), CAST(b.ts AS BIGINT)) AS __alert_ts
        |FROM events a, events b
        |WHERE a.event_type = 'network' AND a.op = 'write'
        |  AND a.subj_exe LIKE '%sqlservr.exe' AND a.dst_ip = '203.0.113.129'
        |  AND CAST(a.agentid AS BIGINT) = 1
        |  AND b.event_type = 'network' AND b.op = 'write'
        |  AND b.subj_exe LIKE '%sbblv.exe' AND b.dst_ip = '203.0.113.129'
        |  AND CAST(b.agentid AS BIGINT) = 1
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |""".stripMargin,
      "events" -> stream)
  }

  test("a null constraint result makes an event no candidate for that pattern") {
    // The first event has no dst_ip: evt1's flag is null, evt2's is true.
    val evs = Seq(
      TestEvents.net(0, 1000L, "beacon.exe", null, 10),
      TestEvents.net(0, 2000L, "beacon.exe", "1.1.1.1", 10),
      TestEvents.net(0, 3000L, "beacon.exe", "2.2.2.2", 10))
    val q = Parser.parse(
      """proc p1["%beacon.exe"] write ip i1[dstip != "10.9.9.9"] as evt1
        |proc p1 write ip i2 as evt2
        |with evt1 -> evt2
        |return p1, i1, i2""".stripMargin, "nullflag")
    val alerts = QueryEngine.run(TestEvents.df(spark, evs), q)
    assert(alerts == Seq(AlertRecord("nullflag", -1L, 3000L,
      Map("p1" -> "beacon.exe", "i1" -> "1.1.1.1", "i2" -> "2.2.2.2"))))
  }

  test("a shared identity attribute that is null on both sides does not join") {
    val q = Parser.parse(
      """proc p1["%a.exe"] start proc p2 as evt1
        |proc p3["%b.exe"] start proc p2 as evt2
        |with evt1 -> evt2
        |return p1, p2, p3""".stripMargin)
    val evs = TestEvents.df(spark, Seq(
      TestEvents.start(0, 1000L, "a.exe", "child.exe"),
      TestEvents.start(0, 2000L, "b.exe", "child.exe")))
    assert(EventMatcher.matches(evs, q).count() == 1)
    val noPid = evs.withColumn("obj_pid", lit(null).cast(LongType))
    assert(EventMatcher.matches(noPid, q).count() == 0)
  }
}
