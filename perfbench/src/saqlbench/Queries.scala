package saqlbench

import java.security.MessageDigest
import repro.saql.Ast.SaqlQuery
import repro.saql.Parser

/** One benchmark query: its short label (metric suffix), its name and the
  * SAQL text the benchmark owns.
  */
final case class QueryText(label: String, name: String, text: String) {
  def parse(): SaqlQuery = Parser.parse(text, name)
}

/** The SAQL texts the benchmark measures.
  *
  * They are copies of the demo's 8 detection queries and of the T3
  * concurrent-monitor shape, held here so that an edit to the program's
  * own query catalogue cannot silently change what the benchmark measures.
  * Victim host 0 and database server 1 match the attack trace's defaults.
  */
object Queries {

  val AttackerIp = "203.0.113.129"
  private val Victim = 0L
  private val Db = 1L

  val demo: Seq[QueryText] = Seq(
    QueryText("r1", "r1_initial_compromise",
      s"""agentid = $Victim
         |proc p1["%outlook.exe"] write file f1["%.xlsm"] as evt1
         |return distinct p1, f1
         |""".stripMargin),
    QueryText("r2", "r2_malware_infection",
      s"""agentid = $Victim
         |proc p1["%excel.exe"] start proc p2 as evt1
         |proc p2 write file f1["%.vbs"] as evt2
         |with evt1 -> evt2
         |return distinct p1, p2, f1
         |""".stripMargin),
    QueryText("r3", "r3_privilege_escalation",
      s"""agentid = $Victim
         |proc p1["%cmd.exe"] start proc p2["%gsecdump.exe"] as evt1
         |proc p2 read file f1["%sam"] as evt2
         |with evt1 -> evt2
         |return distinct p1, p2, f1
         |""".stripMargin),
    QueryText("r4", "r4_penetration",
      s"""agentid = $Db
         |proc p1["%cscript.exe"] write file f1["%sbblv.exe"] as evt1
         |proc p1 start proc p2["%sbblv.exe"] as evt2
         |proc p2 write ip i1[dstip="$AttackerIp"] as evt3
         |with evt1 -> evt2 -> evt3
         |return distinct p1, f1, p2, i1
         |""".stripMargin),
    QueryText("r5", "r5_data_exfiltration",
      s"""agentid = $Db
         |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
         |proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
         |proc p4["%sbblv.exe"] read file f1 as evt3
         |proc p4 read || write ip i1[dstip="$AttackerIp"] as evt4
         |with evt1 -> evt2 -> evt3 -> evt4
         |return distinct p1, p2, p3, f1, p4, i1
         |""".stripMargin),
    QueryText("a1", "a1_invariant_excel",
      s"""agentid = $Victim
         |proc p1["%excel.exe"] start proc p2 as evt #time(10 s)
         |state ss {
         |  set_proc := set(p2.exe_name)
         |} group by p1
         |invariant[100][offline] {
         |  a := empty_set
         |  a = a union ss.set_proc
         |}
         |alert |ss.set_proc diff a| > 0
         |return p1, ss.set_proc
         |""".stripMargin),
    QueryText("a2", "a2_timeseries_sma",
      s"""agentid = $Db
         |proc p write ip i as evt #time(10 min)
         |state[3] ss {
         |  avg_amount := avg(evt.amount)
         |} group by p
         |alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
         |return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount
         |""".stripMargin),
    QueryText("a3", "a3_outlier_dbscan",
      s"""agentid = $Db
         |proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
         |state ss {
         |  amt := sum(evt.amount)
         |} group by i.dstip
         |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
         |alert cluster.outlier && ss.amt > 1000000
         |return i.dstip, ss.amt
         |""".stripMargin),
  )

  /** Processes, files and addresses of the injected attack trace. */
  private val attackActors: Set[String] = Set(
    "outlook.exe", "excel.exe", "wscript.exe", "backdoor.exe", "cmd.exe",
    "portscan.exe", "gsecdump.exe", "cscript.exe", "sbblv.exe", "osql.exe",
    "sqlservr.exe", AttackerIp)

  /** The attack-step evidence an alert must carry (EXPERIMENTS.md T1). */
  val evidence: Map[String, Map[String, String] => Boolean] = Map(
    "r1" -> (v => v.get("f1").exists(_.endsWith(".xlsm"))),
    "r2" -> (v => v.get("p2").contains("wscript.exe")),
    "r3" -> (v => v.get("p2").contains("gsecdump.exe")),
    "r4" -> (v => v.get("p2").contains("sbblv.exe")),
    "r5" -> (v => v.get("p4").contains("sbblv.exe")),
    "a1" -> (v => v.get("ss_set_proc").exists(_.contains("wscript.exe"))),
    "a2" -> (v => v.get("p").contains("sbblv.exe")),
    "a3" -> (v => v.get("i_dstip").contains(AttackerIp)),
  )

  /** Advanced (stateful) queries assume no attack knowledge, so a benign
    * alert is a false positive: each alert must name an attack actor.
    */
  val actorOnly: Map[String, Map[String, String] => Boolean] = Map(
    "a1" -> (v => v.get("ss_set_proc").exists(s => attackActors.exists(a => s.contains(a) && a != "excel.exe"))),
    "a2" -> (v => v.get("p").exists(attackActors)),
    "a3" -> (v => v.get("i_dstip").exists(attackActors)),
  )

  /** The T3 shape: one unconstrained network-volume master plus `n - 1`
    * dependents, each constrained to one process and a distinct threshold.
    */
  def monitors(n: Int): Seq[QueryText] = {
    val master = QueryText("m00", "net_master",
      """proc p write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by p
        |alert ss.amt > 100000
        |return p, ss.amt
        |""".stripMargin)
    val exes = Seq("chrome.exe", "outlook.exe", "sqlservr.exe", "apache.exe",
      "svchost.exe", "ntpd", "backup.exe", "excel.exe")
    master +: (0 until n - 1).map { i =>
      QueryText(f"m${i + 1}%02d", f"net_dep_$i%02d",
        s"""proc p["%${exes(i % exes.size)}"] write ip i as evt #time(10 min)
           |state ss { amt := sum(evt.amount) } group by p
           |alert ss.amt > ${50000 + i * 10000}
           |return p, ss.amt
           |""".stripMargin)
    }
  }

  /** Labels of the rule-based (sequence-matching) demo queries. */
  val ruleLabels: Set[String] = Set("r1", "r2", "r3", "r4", "r5")

  /** SHA-256 over the query texts, in order: pins what is measured. */
  def fingerprint(qs: Seq[QueryText]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    qs.foreach(q => md.update(s"${q.name}\u0000${q.text}\u0000".getBytes("UTF-8")))
    md.digest().take(8).map(b => f"$b%02x").mkString
  }
}
