package repro.core

import repro.SparkSpec
import repro.events.{AttackTrace, MonitoringData}
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery

/** Master-dependent-query scheme: grouping, subsumption, result equality
  * (shared state jobs and master groups) and data-copy accounting.
  */
class SchedulerSpec extends SparkSpec {

  private lazy val stream = MonitoringData.events(spark, sf = 0.002, seed = 2).cache()

  private def netQuery(name: String, exe: String): SaqlQuery = Parser.parse(
    s"""proc p["%$exe"] write ip i as evt #time(10 min)
       |state ss { amt := sum(evt.amount) } group by p
       |alert ss.amt > 0
       |return p, ss.amt""".stripMargin, name)

  private val master = Parser.parse(
    """proc p write ip i as evt #time(10 min)
      |state ss { amt := sum(evt.amount) } group by p
      |alert ss.amt > 0
      |return p, ss.amt""".stripMargin, "net_all")

  private val deps = Seq("chrome.exe", "outlook.exe", "sqlservr.exe", "apache.exe")
    .map(e => netQuery(s"net_$e", e))

  test("signature groups same-shape queries") {
    val sig = Scheduler.signature(master)
    assert(deps.forall(d => Scheduler.signature(d) == sig))
  }

  test("different window or ops break compatibility") {
    val other = Parser.parse(
      """proc p read ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by p
        |alert ss.amt > 0
        |return p, ss.amt""".stripMargin, "reads")
    assert(Scheduler.signature(other) != Scheduler.signature(master))
    val otherWin = Parser.parse(
      """proc p write ip i as evt #time(5 min)
        |state ss { amt := sum(evt.amount) } group by p
        |alert ss.amt > 0
        |return p, ss.amt""".stripMargin, "w5")
    assert(Scheduler.signature(otherWin) != Scheduler.signature(master))
  }

  test("subsumption: unconstrained master covers constrained dependents") {
    deps.foreach(d => assert(Scheduler.subsumes(master, d)))
    deps.foreach(d => assert(!Scheduler.subsumes(d, master)))
    assert(!Scheduler.subsumes(deps(0), deps(1)))
  }

  test("grouping elects the subsuming member as master") {
    val gs = Scheduler.group(master +: deps)
    assert(gs.size == 1)
    assert(gs.head.master.map(_.name).contains("net_all"))
    assert(gs.head.members.size == 5)
  }

  test("grouping without a subsuming member synthesizes a union master") {
    val gs = Scheduler.group(deps)
    assert(gs.size == 1)
    assert(gs.head.master.isEmpty) // union-of-constraints filter
  }

  test("incompatible queries go to separate groups") {
    val rule = Parser.parse(
      """proc p1["%cmd.exe"] start proc p2 as evt1
        |return distinct p1, p2""".stripMargin, "rule1")
    val gs = Scheduler.group(Seq(master, rule) ++ deps)
    assert(gs.size == 2)
  }

  test("master-dependent alerts equal independent alerts") {
    val queries = master +: deps
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.alerts.keySet == mdq.alerts.keySet)
    for (name <- ind.alerts.keySet)
      assert(ind.alerts(name) == mdq.alerts(name), s"alerts differ for $name")
  }

  test("union-master groups also preserve alerts") {
    val ind = Scheduler.runIndependent(stream, deps)
    val mdq = Scheduler.runMasterDependent(stream, deps)
    for (name <- ind.alerts.keySet)
      assert(ind.alerts(name) == mdq.alerts(name), s"alerts differ for $name")
  }

  test("scheme reduces stream scans by the grouping factor") {
    val queries = master +: deps // 5 queries, 1 group
    val n = stream.count()
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.stats.rowsScanned == 5 * n)
    assert(mdq.stats.rowsScanned == n)
    assert(mdq.stats.groups == 1 && ind.stats.groups == 5)
  }

  test("scheme reduces data copies (dependents read master output only)") {
    val queries = master +: deps
    val n = stream.count()
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.stats.rowsCopied == 5 * n)
    assert(mdq.stats.rowsCopied < ind.stats.rowsCopied)
  }

  test("rule queries detect the same attack under both schemes") {
    val atk = AttackTrace.withBackground(spark, sf = 0.002, seed = 0,
      attackStartMs = 1_800_000L).cache()
    val qs = Seq(
      repro.queries.DemoQueries.r1InitialCompromise(0L),
      repro.queries.DemoQueries.r3PrivilegeEscalation(0L))
    val ind = Scheduler.runIndependent(atk, qs)
    val mdq = Scheduler.runMasterDependent(atk, qs)
    assert(ind.alerts == mdq.alerts)
    assert(ind.alerts.values.forall(_.nonEmpty))
  }

  // ------------------------------------------------ shared state jobs

  /** Network-write monitor over 10-minute windows unless `window` says
    * otherwise; `body` is everything after the pattern.
    */
  private def monitor(name: String, exe: String, body: String,
                      window: String = "#time(10 min)"): SaqlQuery = {
    val subj = if (exe.isEmpty) "proc p" else s"""proc p["%$exe"]"""
    Parser.parse(s"$subj write ip i as evt $window\n$body", name)
  }

  /** Runs `qs`, one scheduler group, under both schemes, asserting whether
    * the group is a shared state job and that every query's alerts agree.
    * Returns the alerts.
    */
  private def sameAsIndependent(qs: Seq[SaqlQuery],
                                shared: Boolean = true): Map[String, Seq[AlertRecord]] = {
    val gs = Scheduler.group(qs)
    assert(gs.size == 1 && gs.head.shared == shared)
    val ind = Scheduler.runIndependent(stream, qs)
    val mdq = Scheduler.runMasterDependent(stream, qs)
    assert(mdq.alerts.keySet == qs.map(_.name).toSet)
    for (q <- qs)
      assert(mdq.alerts(q.name) == ind.alerts(q.name), s"alerts differ for ${q.name}")
    ind.alerts
  }

  test("shared job: every aggregate equals independent execution") {
    val aggs = Seq("sum" -> "evt.amount", "avg" -> "evt.amount", "count" -> "evt.amount",
      "max" -> "evt.amount", "min" -> "evt.amount", "set" -> "i.dstip")
    val exes = Seq("", "chrome.exe", "outlook.exe", "sqlservr.exe", "apache.exe", "ntpd")
    val qs = aggs.zip(exes).map { case ((f, arg), exe) =>
      val alert = if (f == "set") "|ss.v| > 0" else "ss.v > 0"
      monitor(s"agg_$f", exe,
        s"state ss { v := $f($arg) } group by p\nalert $alert\nreturn p, ss.v")
    }
    val alerts = sameAsIndependent(qs)
    assert(alerts.values.forall(_.nonEmpty))
  }

  test("shared job: sliding windows equal independent execution") {
    val body = """state[2] ss { amt := sum(evt.amount) } group by p
                 |alert ss[0].amt > ss[1].amt
                 |return p, ss[0].amt, ss[1].amt""".stripMargin
    val qs = Seq(monitor("slide_all", "", body, "#time(10 min, 5 min)"),
                 monitor("slide_chrome", "chrome.exe", body, "#time(10 min, 5 min)"))
    assert(sameAsIndependent(qs).values.forall(_.nonEmpty))
  }

  test("shared job: invariant and DBSCAN members equal independent execution") {
    val inv = monitor("inv_dsts", "",
      """state ss { dsts := set(i.dstip) } group by p
        |invariant[1][offline] {
        |  a := empty_set
        |  a = a union ss.dsts
        |}
        |alert |ss.dsts diff a| > 0
        |return p, ss.dsts""".stripMargin)
    val outlier = monitor("dbscan_amt", "",
      """state ss { amt := sum(evt.amount) } group by p
        |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(5000, 3)")
        |alert cluster.outlier
        |return p, ss.amt""".stripMargin)
    assert(sameAsIndependent(Seq(inv, outlier, deps.head)).values.forall(_.nonEmpty))
  }

  test("shared job: differently named group-by variables on one column") {
    val other = Parser.parse(
      """proc x["%chrome.exe"] write ip y as e #time(10 min)
        |state ss { amt := sum(e.amount) } group by x
        |alert ss.amt > 0
        |return x, ss.amt""".stripMargin, "net_chrome_x")
    assert(sameAsIndependent(Seq(master, other)).values.forall(_.nonEmpty))
  }

  test("keys on different columns keep the master path and equal results") {
    val byDst = monitor("net_by_dst", "",
      """state ss { amt := sum(evt.amount) } group by i
        |alert ss.amt > 0
        |return i, ss.amt""".stripMargin)
    assert(sameAsIndependent(Seq(master, byDst), shared = false).values.forall(_.nonEmpty))
  }

  test("shared job: a member sees no state rows for keys it never matched") {
    // `count` is 0, not null, on a key the member never matched.
    val body = """state ss { n := count(evt.amount) } group by p
                 |alert ss.n >= 0
                 |return p, ss.n""".stripMargin
    val qs = Seq(monitor("any_chrome", "chrome.exe", body),
                 monitor("any_outlook", "outlook.exe", body),
                 monitor("any_all", "", body))
    val alerts = sameAsIndependent(qs)
    assert(alerts("any_chrome").nonEmpty &&
      alerts("any_chrome").forall(_.values("p").endsWith("chrome.exe")))
    assert(alerts("any_all").map(_.values("p")).distinct.size > 2)
  }

  test("malformed members fail with their name before any Spark job") {
    val outlier = monitor("outlier_ok", "",
      """state ss { amt := sum(evt.amount) } group by p
        |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(10000, 2)")
        |alert cluster.outlier
        |return p, ss.amt""".stripMargin)
    val bad = Seq(
      outlier.copy(name = "no_window",
        patterns = outlier.patterns.map(_.copy(window = None))),
      outlier.copy(name = "no_state", state = None),
      outlier.copy(name = "one_dbscan_arg",
        cluster = outlier.cluster.map(_.copy(args = Seq(10000.0)))))
    val events = TestEvents.poisoned(stream)
    intercept[Exception](events.count()) // the premise: a job over it fails
    for (q <- bad) {
      val e = intercept[IllegalArgumentException](
        Scheduler.runMasterDependent(events, Seq(master, outlier, q)))
      assert(e.getMessage.contains(s"'${q.name}'"), e.getMessage)
    }
  }
}
