//! Integration tests: every example query of the paper (Q1–Q12),
//! in both the XQuery-1.0 formulation the paper criticizes and the
//! proposed extended syntax, checked against the paper's own example
//! instances and against generated workloads.

use xqa::{parse_document, serialize_sequence, DynamicContext, Engine};
use xqa_workload::{bib, sales, BibConfig, SalesConfig};

fn run_doc(query: &str, doc: &std::sync::Arc<xqa::xdm::Document>) -> String {
    let engine = Engine::new();
    let compiled = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"));
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(doc);
    let result = compiled
        .run(&ctx)
        .unwrap_or_else(|e| panic!("run: {e}\n{query}"));
    serialize_sequence(&result)
}

fn run_xml(query: &str, xml: &str) -> String {
    run_doc(query, &parse_document(xml).expect("well-formed"))
}

/// A small bibliography shaped exactly like Figure 1: Morgan Kaufmann
/// 1993 with net prices (65, 43, 57), Morgan Kaufmann 1995 with
/// (34, 75), Addison-Wesley 1993 with (48).
const FIGURE1_BIB: &str = r#"<bib>
  <book><title>T1</title><publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>70.00</price><discount>5.00</discount></book>
  <book><title>T2</title><publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>45.00</price><discount>2.00</discount></book>
  <book><title>T3</title><publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>60.00</price><discount>3.00</discount></book>
  <book><title>T4</title><publisher>Morgan Kaufmann</publisher><year>1995</year>
        <price>36.00</price><discount>2.00</discount></book>
  <book><title>T5</title><publisher>Morgan Kaufmann</publisher><year>1995</year>
        <price>80.00</price><discount>5.00</discount></book>
  <book><title>T6</title><publisher>Addison-Wesley</publisher><year>1993</year>
        <price>50.00</price><discount>2.00</discount></book>
</bib>"#;

/// The paper's extended-syntax Q1.
const Q1_NEW: &str = r#"
    for $b in //book
    group by $b/publisher into $p, $b/year into $y
    nest $b/price - $b/discount into $netprices
    order by $p, $y
    return
      <group>
        {string($p), string($y)}
        <avg-net-price>{avg($netprices)}</avg-net-price>
      </group>"#;

/// The paper's Section-2 (XQuery 1.0) formulation of Q1.
const Q1_OLD: &str = r#"
    for $p in distinct-values(//book/publisher)
    for $y in distinct-values(//book/year)
    let $b := //book[publisher = $p and year = $y]
    where exists($b)
    order by $p, $y
    return
      <group>
        {$p, string($y)}
        <avg-net-price>{avg(for $x in $b return $x/price - $x/discount)}</avg-net-price>
      </group>"#;

#[test]
fn figure1_bindings_after_group_by() {
    // Figure 1: the tuple stream after group by in Q1 — three groups,
    // with exactly the nested net-price sequences of the figure.
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $p, $b/year into $y
           nest $b/price - $b/discount into $netprices
           order by $p, $y
           return <t p="{$p}" y="{$y}">{$netprices}</t>"#,
        FIGURE1_BIB,
    );
    assert_eq!(
        out,
        "<t p=\"Addison-Wesley\" y=\"1993\">48</t>\
         <t p=\"Morgan Kaufmann\" y=\"1993\">65 43 57</t>\
         <t p=\"Morgan Kaufmann\" y=\"1995\">34 75</t>"
    );
}

#[test]
fn q1_new_syntax_on_figure1_data() {
    let out = run_xml(Q1_NEW, FIGURE1_BIB);
    assert_eq!(
        out,
        "<group>Addison-Wesley 1993<avg-net-price>48</avg-net-price></group>\
         <group>Morgan Kaufmann 1993<avg-net-price>55</avg-net-price></group>\
         <group>Morgan Kaufmann 1995<avg-net-price>54.5</avg-net-price></group>"
    );
}

#[test]
fn q1_old_and_new_agree_when_all_books_have_publishers() {
    // The forms agree exactly when no book lacks a publisher/year
    // (the old form drops empty groups — the paper's §2 criticism).
    let doc = bib::generate(&BibConfig {
        books: 300,
        publisher_probability: 1.0,
        ..Default::default()
    });
    assert_eq!(run_doc(Q1_OLD, &doc), run_doc(Q1_NEW, &doc));
}

#[test]
fn q1_old_syntax_misses_publisherless_books() {
    // §2: "the problem of missing rows for books that do not have any
    // publishers" — the explicit form reports them, the old form cannot.
    let doc = bib::generate(&BibConfig {
        books: 300,
        publisher_probability: 0.85,
        ..Default::default()
    });
    let count_new = run_doc(
        "count(for $b in //book \
         group by $b/publisher into $p, $b/year into $y return <g/>)",
        &doc,
    );
    let count_old = run_doc(
        "count(for $p in distinct-values(//book/publisher) \
         for $y in distinct-values(//book/year) \
         let $b := //book[publisher = $p and year = $y] \
         where exists($b) return <g/>)",
        &doc,
    );
    let (count_new, count_old): (i64, i64) =
        (count_new.parse().unwrap(), count_old.parse().unwrap());
    assert!(
        count_new > count_old,
        "explicit grouping found {count_new} groups, old {count_old}"
    );
}

#[test]
fn q2_old_syntax_groups_per_individual_author() {
    // §2 Q2: one group per *individual* author value.
    let xml = r#"<bib>
      <book><author>Gray</author><author>Reuter</author><price>10.00</price></book>
      <book><author>Gray</author><price>30.00</price></book>
    </bib>"#;
    let out = run_xml(
        r#"for $a in distinct-values(//book/author)
           let $b := //book[author = $a]
           return <group>{$a}<avg-price>{avg($b/price)}</avg-price></group>"#,
        xml,
    );
    // Gray's group averages BOTH books (20); Reuter's only the first.
    assert_eq!(
        out,
        "<group>Gray<avg-price>20</avg-price></group>\
         <group>Reuter<avg-price>10</avg-price></group>"
    );
}

#[test]
fn q2a_new_syntax_groups_per_author_set() {
    // §3.3 Q2a: grouping by the author *sequence*.
    let xml = r#"<bib>
      <book><author>Gray</author><author>Reuter</author><price>10.00</price></book>
      <book><author>Gray</author><price>30.00</price></book>
    </bib>"#;
    let out = run_xml(
        r#"for $b in //book
           group by $b/author into $a
           nest $b/price into $prices
           return <group>{for $x in $a return string($x)}|{avg($prices)}</group>"#,
        xml,
    );
    assert_eq!(out, "<group>Gray Reuter|10</group><group>Gray|30</group>");
}

/// Sales data small enough to verify Q3 by hand.
const Q3_SALES: &str = r#"<sales>
  <sale><timestamp>2004-01-10T08:00:00</timestamp><product>Tea</product>
        <state>CA</state><region>West</region><quantity>10</quantity><price>2.00</price></sale>
  <sale><timestamp>2004-06-01T08:00:00</timestamp><product>Tea</product>
        <state>OR</state><region>West</region><quantity>4</quantity><price>5.00</price></sale>
  <sale><timestamp>2004-07-04T08:00:00</timestamp><product>Tea</product>
        <state>CA</state><region>West</region><quantity>2</quantity><price>10.00</price></sale>
  <sale><timestamp>2005-02-01T08:00:00</timestamp><product>Tea</product>
        <state>NY</state><region>East</region><quantity>3</quantity><price>4.00</price></sale>
  <sale><timestamp>2004-03-01T08:00:00</timestamp><product>Tea</product>
        <state>NY</state><region>East</region><quantity>5</quantity><price>2.00</price></sale>
</sales>"#;

/// The paper's §2 (old syntax) Q3.
const Q3_OLD: &str = r#"
    for $year in distinct-values(//sale/year-from-dateTime(timestamp))
    for $region in distinct-values(//sale/region)
    let $region-sales := //sale[region = $region and
                          year-from-dateTime(timestamp) = $year]
    let $region-sum := sum( $region-sales/(quantity * price) )
    for $state in distinct-values($region-sales/state)
    let $state-sales := $region-sales[state = $state]
    let $state-sum := sum( $state-sales/(quantity * price) )
    order by $year, $region, $state
    return <summary>
        <year>{ $year }</year>
        <region>{ string($region) }</region>
        <state>{ string($state) }</state>
        <state-sales>{ $state-sum }</state-sales>
        <region-sales>{ $region-sum }</region-sales>
        <state-percentage>{ $state-sum * 100 div $region-sum }</state-percentage>
    </summary>"#;

/// The paper's §3.1 (extended syntax) Q3.
const Q3_NEW: &str = r#"
    for $s in //sale
    group by $s/region into $region,
         year-from-dateTime($s/timestamp) into $year
    nest $s into $region-sales
    let $region-sum := sum( $region-sales/(quantity * price) )
    order by $year, $region
    return
      for $s in $region-sales
      group by $s/state into $state
      nest $s into $state-sales
      let $state-sum := sum( $state-sales/(quantity * price) )
      order by $state
      return <summary>
          <year>{ $year }</year>
          <region>{ string($region) }</region>
          <state>{ string($state) }</state>
          <state-sales>{ $state-sum }</state-sales>
          <region-sales>{ $region-sum }</region-sales>
          <state-percentage>{ $state-sum * 100 div $region-sum }</state-percentage>
      </summary>"#;

#[test]
fn q3_new_syntax_hand_checked() {
    let out = run_xml(Q3_NEW, Q3_SALES);
    // 2004 East: NY=10, region 10. 2004 West: CA=40, OR=20, region 60.
    // 2005 East: NY=12.
    assert!(
        out.starts_with(
            "<summary><year>2004</year><region>East</region><state>NY</state>\
         <state-sales>10</state-sales><region-sales>10</region-sales>\
         <state-percentage>100</state-percentage></summary>"
        ),
        "{out}"
    );
    assert!(out.contains(
        "<summary><year>2004</year><region>West</region><state>CA</state>\
         <state-sales>40</state-sales><region-sales>60</region-sales>"
    ));
    assert!(out.contains(
        "<summary><year>2004</year><region>West</region><state>OR</state>\
         <state-sales>20</state-sales>"
    ));
    assert!(
        out.ends_with(
            "<summary><year>2005</year><region>East</region><state>NY</state>\
         <state-sales>12</state-sales><region-sales>12</region-sales>\
         <state-percentage>100</state-percentage></summary>"
        ),
        "{out}"
    );
}

#[test]
fn q3_old_and_new_agree() {
    assert_eq!(run_xml(Q3_OLD, Q3_SALES), run_xml(Q3_NEW, Q3_SALES));
    // And on a generated workload.
    let doc = sales::generate(&SalesConfig {
        sales: 400,
        ..Default::default()
    });
    assert_eq!(run_doc(Q3_OLD, &doc), run_doc(Q3_NEW, &doc));
}

#[test]
fn q4_expensive_publishers() {
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub nest $b/price into $prices
           let $avgprice := avg($prices)
           where $avgprice > 55
           order by $avgprice descending
           return
             <expensive-publisher>
               {string($pub)}
               <avg-price>{$avgprice}</avg-price>
             </expensive-publisher>"#,
        FIGURE1_BIB,
    );
    // MK avg price = (70+45+60+36+80)/5 = 58.2; AW = 50 (filtered out).
    assert_eq!(
        out,
        "<expensive-publisher>Morgan Kaufmann<avg-price>58.2</avg-price></expensive-publisher>"
    );
}

#[test]
fn q5_distinct_publisher_title_pairs() {
    let xml = r#"<bib>
      <book><title>X</title><publisher>MK</publisher></book>
      <book><title>X</title><publisher>MK</publisher></book>
      <book><title>Y</title><publisher>MK</publisher></book>
      <book><title>X</title></book>
      <book><publisher>AW</publisher></book>
    </bib>"#;
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub, $b/title into $title
           order by $pub, $title
           return <pair>{string($pub)}/{string($title)}</pair>"#,
        xml,
    );
    // Old-syntax Cartesian approach would miss (X, no publisher) and
    // (AW, no title) — the explicit form reports all four pairs.
    assert_eq!(
        out,
        "<pair>/X</pair><pair>AW/</pair><pair>MK/X</pair><pair>MK/Y</pair>"
    );
}

#[test]
fn q6_yearly_report() {
    let out = run_xml(
        r#"for $b in //book
           group by $b/year into $year
           nest $b/title into $titles
           order by $year
           return
             <yearly-report>
               {string($year)}
               <book-count>{count($titles)}</book-count>
               <title-list>{$titles}</title-list>
             </yearly-report>"#,
        FIGURE1_BIB,
    );
    assert_eq!(
        out,
        "<yearly-report>1993<book-count>4</book-count>\
         <title-list><title>T1</title><title>T2</title><title>T3</title><title>T6</title></title-list>\
         </yearly-report>\
         <yearly-report>1995<book-count>2</book-count>\
         <title-list><title>T4</title><title>T5</title></title-list>\
         </yearly-report>"
    );
}

#[test]
fn q7_hierarchy_inversion() {
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub nest $b into $b
           order by $pub
           return
             <publisher>
               <name>{string($pub)}</name>
               <books>{$b/title}</books>
             </publisher>"#,
        FIGURE1_BIB,
    );
    assert_eq!(
        out,
        "<publisher><name>Addison-Wesley</name><books><title>T6</title></books></publisher>\
         <publisher><name>Morgan Kaufmann</name>\
         <books><title>T1</title><title>T2</title><title>T3</title><title>T4</title><title>T5</title></books>\
         </publisher>"
    );
}

#[test]
fn figure2_bindings_after_group_by_region_year() {
    // Figure 2: one output tuple per (region, year) with the nested
    // sales and their sum.
    let xml = r#"<sales>
      <sale><timestamp>1993-05-05T10:00:00</timestamp><state>CA</state>
            <region>West</region><quantity>10</quantity><price>6.25</price></sale>
      <sale><timestamp>1993-08-01T10:00:00</timestamp><state>OR</state>
            <region>West</region><quantity>5</quantity><price>12.48</price></sale>
    </sales>"#;
    let out = run_xml(
        r#"for $s in //sale
           group by $s/region into $region,
                    year-from-dateTime($s/timestamp) into $year
           nest $s into $region-sales
           let $region-sum := sum( $region-sales/(quantity * price) )
           return <t region="{string($region)}" year="{$year}"
                     n="{count($region-sales)}" sum="{$region-sum}"/>"#,
        xml,
    );
    // 10*6.25 + 5*12.48 = 62.5 + 62.4 = 124.9 (the figure's 124.90).
    assert_eq!(
        out,
        "<t region=\"West\" year=\"1993\" n=\"2\" sum=\"124.9\"/>"
    );
}

const MELTON_BIB: &str = r#"<bib>
  <book><title>Understanding the New SQL</title><author>Jim Melton</author>
        <price>54.95</price></book>
  <book><title>Transaction Processing</title><author>Jim Gray</author>
        <price>65.00</price></book>
  <book><title>Understanding SQL and Java Together</title><author>Jim Melton</author>
        <price>49.95</price></book>
  <book><title>Advanced SQL</title><author>Jim Melton</author>
        <price>59.95</price></book>
</bib>"#;

#[test]
fn q9_input_numbering_document_order() {
    // §4 Q9: `at` numbers books in binding (document) order.
    let out = run_xml(
        r#"for $b at $i in //book[author = "Jim Melton"]
           return <book><number>{$i}</number>{$b/title}</book>"#,
        MELTON_BIB,
    );
    assert_eq!(
        out,
        "<book><number>1</number><title>Understanding the New SQL</title></book>\
         <book><number>2</number><title>Understanding SQL and Java Together</title></book>\
         <book><number>3</number><title>Advanced SQL</title></book>"
    );
}

#[test]
fn q9a_at_reflects_input_not_output_order() {
    // §4 Q9a: after order by price, the `at` numbers are shuffled —
    // the motivating wart for output numbering.
    let out = run_xml(
        r#"for $b at $i in //book[author = "Jim Melton"]
           order by $b/price ascending
           return <book><number>{$i}</number>{$b/price}</book>"#,
        MELTON_BIB,
    );
    assert_eq!(
        out,
        "<book><number>2</number><price>49.95</price></book>\
         <book><number>1</number><price>54.95</price></book>\
         <book><number>3</number><price>59.95</price></book>"
    );
}

#[test]
fn q9b_top_three_by_output_numbering() {
    // §4 Q9b with `return at`: rank reflects output order directly.
    let out = run_xml(
        r#"for $b in //book[author = "Jim Melton"]
           order by $b/price descending
           return at $rank
             <book><rank>{$rank}</rank>{$b/price}</book>"#,
        MELTON_BIB,
    );
    assert_eq!(
        out,
        "<book><rank>1</rank><price>59.95</price></book>\
         <book><rank>2</rank><price>54.95</price></book>\
         <book><rank>3</rank><price>49.95</price></book>"
    );
    // The paper's old-syntax workaround gives the same result.
    let old = run_xml(
        r#"let $ranked-books :=
             (for $b in //book[author = "Jim Melton"]
              order by $b/price descending
              return $b)
           return
             (for $b at $i in $ranked-books
              where $i <= 3
              return <book><rank>{$i}</rank>{$b/price}</book>)"#,
        MELTON_BIB,
    );
    assert_eq!(out, old);
}

#[test]
fn q10_monthly_regional_ranking() {
    let doc = sales::generate(&SalesConfig {
        sales: 500,
        ..Default::default()
    });
    let out = run_doc(
        r#"for $s in //sale
           group by year-from-dateTime($s/timestamp) into $year,
                    month-from-dateTime($s/timestamp) into $month
           nest $s into $month-sales
           order by $year, $month
           return
             <monthly-report year="{$year}" month="{$month}">
               {for $ms in $month-sales
                group by $ms/region into $region
                nest $ms/quantity * $ms/price into $sales-amounts
                let $sum := sum($sales-amounts)
                order by $sum descending
                return at $rank
                  <regional-results>
                    <rank>{$rank}</rank>
                    <region>{string($region)}</region>
                    <total-sales>{$sum}</total-sales>
                  </regional-results>}
             </monthly-report>"#,
        &doc,
    );
    // Structural checks: 36 months (2003-2005), ranks start at 1 and
    // totals are non-increasing within each report.
    assert_eq!(out.matches("<monthly-report").count(), 36);
    for report in out.split("</monthly-report>").filter(|r| !r.is_empty()) {
        let totals: Vec<f64> = report
            .split("<total-sales>")
            .skip(1)
            .map(|t| t.split('<').next().unwrap().parse().unwrap())
            .collect();
        assert!(!totals.is_empty());
        assert!(
            totals.windows(2).all(|w| w[0] >= w[1]),
            "ranked descending: {totals:?}"
        );
        let ranks: Vec<usize> = report
            .split("<rank>")
            .skip(1)
            .map(|t| t.split('<').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(ranks, (1..=ranks.len()).collect::<Vec<_>>());
    }
}

#[test]
fn q11_rollup_matches_paper_output() {
    // §5 Q11 on the paper's own two-book example: expected output given
    // verbatim in the paper.
    let doc = bib::paper_section5_bib();
    let out = run_doc(
        r#"declare function local:paths($roots as element()*) as xs:string* {
             for $c in $roots
             return ( string(node-name($c)),
                      for $p in local:paths($c/*)
                      return concat(string(node-name($c)), "/", $p) ) };
           for $b in //book
           for $c in local:paths($b/categories/*)
           group by $c into $category
           nest $b/price into $prices
           order by $category
           return <result><category>{$category}</category>
                    <avg-price>{avg($prices)}</avg-price></result>"#,
        &doc,
    );
    assert_eq!(
        out,
        "<result><category>anthology</category><avg-price>65</avg-price></result>\
         <result><category>software</category><avg-price>62</avg-price></result>\
         <result><category>software/db</category><avg-price>62</avg-price></result>\
         <result><category>software/db/concurrency</category><avg-price>59</avg-price></result>\
         <result><category>software/distributed</category><avg-price>59</avg-price></result>"
    );
}

#[test]
fn q12_datacube_matches_paper_output() {
    // §5 Q12 on the figure-1 data plus a publisher-less book: the cube
    // over (publisher, year), with empty publishers normalized.
    let xml = r#"<bib>
      <book><publisher>MK</publisher><year>1993</year><price>40.00</price></book>
      <book><publisher>MK</publisher><year>1995</year><price>60.00</price></book>
      <book><year>1993</year><price>20.00</price></book>
    </bib>"#;
    let out = run_xml(
        r#"for $b in //book
           let $pub := if (empty($b/publisher)) then <publisher/> else $b/publisher
           for $d in xqa:cube(($pub, $b/year))
           group by $d into $group
           nest $b/price into $prices
           return <result><dims>{count($group/*)}</dims><n>{count($prices)}</n>
                    <avg>{avg($prices)}</avg></result>"#,
        xml,
    );
    // Overall: 3 books avg 40.
    assert!(
        out.contains("<result><dims>0</dims><n>3</n><avg>40</avg></result>"),
        "{out}"
    );
    // By publisher: MK (2 books avg 50), empty (1 book avg 20).
    assert!(out.contains("<dims>1</dims><n>2</n><avg>50</avg>"), "{out}");
    // By year: 1993 (2 books avg 30), 1995 (60).
    assert!(out.contains("<dims>1</dims><n>2</n><avg>30</avg>"), "{out}");
    // Pairs: 3 distinct (publisher, year) combos.
    assert_eq!(out.matches("<dims>2</dims>").count(), 3, "{out}");
    assert_eq!(out.matches("<result>").count(), 8, "{out}");
}

#[test]
fn table1_query_pair_equivalence_one_element() {
    // Table 1, one-element template: Q and Qgb produce the same groups
    // on order data where each grouping element occurs exactly once.
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 150,
        ..Default::default()
    });
    let qgb = run_doc(
        r#"for $litem in //order/lineitem
           group by $litem/shipmode into $a
           nest $litem into $items
           order by $a
           return <r>{string($a)}|{count($items)}</r>"#,
        &doc,
    );
    let q = run_doc(
        r#"for $a in distinct-values(//order/lineitem/shipmode)
           let $items := for $i in //order/lineitem where $i/shipmode = $a return $i
           order by $a
           return <r>{$a}|{count($items)}</r>"#,
        &doc,
    );
    assert_eq!(qgb, q);
}

#[test]
fn table1_query_pair_equivalence_two_element() {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 120,
        ..Default::default()
    });
    let qgb = run_doc(
        r#"for $litem in //order/lineitem
           group by $litem/shipinstruct into $a, $litem/tax into $b
           nest $litem into $items
           order by $a, $b
           return <r>{string($a)}|{string($b)}|{count($items)}</r>"#,
        &doc,
    );
    let q = run_doc(
        r#"for $a in distinct-values(//order/lineitem/shipinstruct),
              $b in distinct-values(//order/lineitem/tax)
           let $items := for $i in //order/lineitem
                         where $i/shipinstruct = $a and $i/tax = $b
                         return $i
           where exists($items)
           order by $a, $b
           return <r>{$a}|{$b}|{count($items)}</r>"#,
        &doc,
    );
    assert_eq!(qgb, q);
}

#[test]
fn implicit_groupby_rewrite_preserves_results() {
    // The ablation: with detection on, the old-syntax Q runs as a
    // grouping plan and produces identical output.
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 100,
        ..Default::default()
    });
    let q_src = r#"for $a in distinct-values(//order/lineitem/shipmode)
                   let $items := for $i in //order/lineitem where $i/shipmode = $a return $i
                   order by $a
                   return <r>{$a}|{count($items)}</r>"#;
    // The baseline is the paper's Q plan: the inner FLWOR re-scanned per
    // distinct value. A hash join would stop the re-scanning too, so
    // the nested loop is pinned for the node-visit comparison below.
    let nested = Engine::with_options(xqa::EngineOptions {
        hints: "join=nested".parse().unwrap(),
        ..Default::default()
    });
    let detecting = Engine::with_options(xqa::EngineOptions {
        hints: "implicit-groupby=on".parse().unwrap(),
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    let baseline = nested.compile(q_src).unwrap();
    let rewritten = detecting.compile(q_src).unwrap();
    assert!(rewritten
        .applied_rewrites()
        .iter()
        .any(|r| r.contains("implicit group-by")));
    assert_eq!(
        serialize_sequence(&baseline.run(&ctx).unwrap()),
        serialize_sequence(&rewritten.run(&ctx).unwrap())
    );
    // And the rewritten plan does dramatically less node visiting.
    ctx.stats.reset();
    baseline.run(&ctx).unwrap();
    let baseline_nodes = ctx.stats.snapshot().nodes_visited;
    ctx.stats.reset();
    rewritten.run(&ctx).unwrap();
    let rewritten_nodes = ctx.stats.snapshot().nodes_visited;
    assert!(
        rewritten_nodes * 3 < baseline_nodes,
        "rewritten {rewritten_nodes} vs baseline {baseline_nodes}"
    );
}

#[test]
fn implicit_groupby_rewrite_respects_declared_types() {
    // The grouped plan would not check a type declared on the bindings
    // it replaces, so the rewrite must leave these alone: rewritten and
    // unrewritten raise the same XPTY0004.
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 20,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    let outcome = |hints: &str, query: &str| {
        let engine = Engine::with_options(xqa::EngineOptions {
            hints: hints.parse().unwrap(),
            ..Default::default()
        });
        let plan = engine.compile(query).unwrap();
        plan.run(&ctx)
            .map(|items| serialize_sequence(&items))
            .map_err(|e| e.code())
    };
    // Table 1's one-key Q with a type declared on the `for`, then on
    // the `let`.
    for (for_type, let_type) in [(" as xs:integer", ""), ("", " as element(order)*")] {
        let query = format!(
            "for $a{for_type} in distinct-values(//order/lineitem/shipmode) \
             let $items{let_type} := \
                 for $i in //order/lineitem where $i/shipmode = $a return $i \
             return <r>{{$a}}|{{count($items)}}</r>"
        );
        let unrewritten = outcome("implicit-groupby=off", &query);
        assert_eq!(unrewritten, Err(xqa::xdm::ErrorCode::XPTY0004), "{query}");
        assert_eq!(
            outcome("implicit-groupby=on", &query),
            unrewritten,
            "{query}"
        );
    }
}
