//! End-to-end tests for the paper's extensions: `group by`, `nest`,
//! `using`, nest `order by`, post-group `let`/`where`, and output
//! numbering — each mapped to the section of the paper it reproduces.

use xqa_engine::{DynamicContext, Engine};
use xqa_xdm::ErrorCode;
use xqa_xmlparse::{parse_document, serialize_sequence};

fn run_xml(query: &str, xml: &str) -> String {
    let engine = Engine::new();
    let compiled = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile {query:?}: {e}"));
    let doc = parse_document(xml).expect("well-formed test document");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    let result = compiled
        .run(&ctx)
        .unwrap_or_else(|e| panic!("run {query:?}: {e}"));
    serialize_sequence(&result)
}

fn run(query: &str) -> String {
    run_xml(query, "<empty/>")
}

/// Bibliography with the §3.1/Figure-1 shape: 3 Morgan Kaufmann 1993
/// books (net prices 65, 43, 57), 2 Morgan Kaufmann 1995 (34, 75),
/// 1 Addison-Wesley 1993 (48), plus one book with no publisher.
const BIB: &str = r#"
<bib>
  <book><title>A</title><author>Gray</author><author>Reuter</author>
        <publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>70.00</price><discount>5.00</discount></book>
  <book><title>B</title><author>Reuter</author><author>Gray</author>
        <publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>45.00</price><discount>2.00</discount></book>
  <book><title>C</title><author>Gray</author>
        <publisher>Morgan Kaufmann</publisher><year>1993</year>
        <price>60.00</price><discount>3.00</discount></book>
  <book><title>D</title><author>Melton</author>
        <publisher>Morgan Kaufmann</publisher><year>1995</year>
        <price>36.00</price><discount>2.00</discount></book>
  <book><title>E</title><author>Melton</author>
        <publisher>Morgan Kaufmann</publisher><year>1995</year>
        <price>80.00</price><discount>5.00</discount></book>
  <book><title>F</title><author>Date</author>
        <publisher>Addison-Wesley</publisher><year>1993</year>
        <price>50.00</price><discount>2.00</discount></book>
  <book><title>G</title><author>Anon</author><year>1993</year>
        <price>20.00</price><discount>1.00</discount></book>
</bib>"#;

#[test]
fn q1_group_by_publisher_year() {
    // Paper §3.1 Q1: average net price per (publisher, year).
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $p, $b/year into $y
           nest $b/price - $b/discount into $netprices
           order by $p, $y
           return <group>{string($p), string($y)}
             <avg-net-price>{avg($netprices)}</avg-net-price></group>"#,
        BIB,
    );
    // Empty publisher sorts least; groups: (,1993), (AW,1993), (MK,1993), (MK,1995)
    assert_eq!(
        out,
        "<group> 1993<avg-net-price>19</avg-net-price></group>\
         <group>Addison-Wesley 1993<avg-net-price>48</avg-net-price></group>\
         <group>Morgan Kaufmann 1993<avg-net-price>55</avg-net-price></group>\
         <group>Morgan Kaufmann 1995<avg-net-price>54.5</avg-net-price></group>"
    );
}

#[test]
fn q1_books_without_publisher_form_their_own_group() {
    // §3.1: "an empty sequence is considered to be a distinct value".
    // Count groups via a constructed marker ($p itself is empty for the
    // no-publisher group, so counting $p would undercount).
    let count = run_xml(
        "count(for $b in //book group by $b/publisher into $p return <g/>)",
        BIB,
    );
    assert_eq!(count, "3", "MK, AW, and the no-publisher group");
}

#[test]
fn q2a_group_by_author_sequence_permutation_sensitive() {
    // §3.3: default deep-equal grouping — (Gray,Reuter) ≠ (Reuter,Gray).
    let out = run_xml(
        r#"for $b in //book
           group by $b/author into $a
           nest $b/title into $titles
           return <g>{string-join(for $x in $a return string($x), "+")}:{string-join(for $t in $titles return string($t), "")}</g>"#,
        BIB,
    );
    assert!(out.contains("<g>Gray+Reuter:A</g>"), "{out}");
    assert!(out.contains("<g>Reuter+Gray:B</g>"), "{out}");
    assert!(out.contains("<g>Gray:C</g>"), "{out}");
    assert!(out.contains("<g>Melton:DE</g>"), "{out}");
}

#[test]
fn q2a_set_equal_using_clause() {
    // §3.3: user-defined set-equal merges permutations.
    let out = run_xml(
        r#"declare function local:set-equal
             ($arg1 as item()*, $arg2 as item()*) as xs:boolean
           { (every $i1 in $arg1 satisfies
                some $i2 in $arg2 satisfies $i1 eq $i2)
             and (every $i2 in $arg2 satisfies
                some $i1 in $arg1 satisfies $i1 eq $i2) };
           for $b in //book
           group by $b/author into $a using local:set-equal
           nest $b/title into $titles
           return <g>{count($titles)}</g>"#,
        BIB,
    );
    // Groups: {Gray,Reuter} (A+B), {Gray} (C), {Melton} (D,E), {Date} (F), {Anon} (G)
    assert_eq!(out, "<g>2</g><g>1</g><g>2</g><g>1</g><g>1</g>");
}

#[test]
fn q4_post_group_let_where_order() {
    // Paper §3.1 Q4: publishers with avg price > threshold.
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub nest $b/price into $prices
           let $avgprice := avg($prices)
           where $avgprice > 40
           order by $avgprice descending
           return <expensive-publisher>{string($pub)}
              <avg-price>{$avgprice}</avg-price></expensive-publisher>"#,
        BIB,
    );
    // MK avg = (70+45+60+36+80)/5 = 58.2 ; AW = 50 ; none = 20 (filtered)
    assert_eq!(
        out,
        "<expensive-publisher>Morgan Kaufmann<avg-price>58.2</avg-price></expensive-publisher>\
         <expensive-publisher>Addison-Wesley<avg-price>50</avg-price></expensive-publisher>"
    );
}

#[test]
fn q5_distinct_pairs_no_nest() {
    // Paper §3.1 Q5: SELECT DISTINCT-style group by without nest.
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub, $b/year into $year
           order by $pub, $year
           return <pair>{string($pub)}|{string($year)}</pair>"#,
        BIB,
    );
    assert_eq!(
        out,
        "<pair>|1993</pair><pair>Addison-Wesley|1993</pair>\
         <pair>Morgan Kaufmann|1993</pair><pair>Morgan Kaufmann|1995</pair>"
    );
}

#[test]
fn q6_count_nested_titles() {
    // Paper §3.1 Q6: yearly report with count and list.
    let out = run_xml(
        r#"for $b in //book
           group by $b/year into $year
           nest $b/title into $titles
           order by $year
           return <yearly-report>{string($year)}
             <book-count>{count($titles)}</book-count></yearly-report>"#,
        BIB,
    );
    assert_eq!(
        out,
        "<yearly-report>1993<book-count>5</book-count></yearly-report>\
         <yearly-report>1995<book-count>2</book-count></yearly-report>"
    );
}

#[test]
fn q7_hierarchy_inversion_rebinds_same_name() {
    // Paper §3.2 Q7: nest $b into $b — rebinding the same name.
    let out = run_xml(
        r#"for $b in //book
           group by $b/publisher into $pub nest $b into $b
           order by $pub descending
           return <publisher><name>{string($pub)}</name>
             <books>{count($b)}</books></publisher>"#,
        BIB,
    );
    assert_eq!(
        out,
        "<publisher><name>Morgan Kaufmann</name><books>5</books></publisher>\
         <publisher><name>Addison-Wesley</name><books>1</books></publisher>\
         <publisher><name/><books>1</books></publisher>"
    );
}

#[test]
fn nested_sequences_flatten_in_nest() {
    // §3.1: nest values merge and lose identity; empty nest expressions
    // contribute nothing (count implications).
    let out = run_xml(
        r#"for $b in //book
           group by $b/year into $y
           nest $b/discount into $ds, $b/author into $as
           order by $y
           return <g>{count($ds)},{count($as)}</g>"#,
        BIB,
    );
    // 1993: 5 books, 5 discounts, 7 authors (A and B have two each);
    // 1995: 2 books, 2 discounts, 2 authors
    assert_eq!(out, "<g>5,7</g><g>2,2</g>");
}

#[test]
fn group_representative_is_from_first_tuple() {
    // The grouping variable is bound to a representative node of the
    // group (implementation-dependent per the paper; we take the first).
    let out = run_xml(
        r#"for $b in //book
           group by $b/year into $y
           nest $b/title into $ts
           order by $y
           return ($y is (//book/year)[1])"#,
        BIB,
    );
    assert_eq!(out, "true false");
}

/// Numbers `eq` calls equal group (and `distinct-values` keeps) as one,
/// also where promotion to `xs:double` rounds; distinct integers whose
/// double images coincide stay apart.
#[test]
fn grouping_on_numbers_spans_numeric_tower() {
    for (query, want) in [
        (
            "for $v in (1, 1.0, 1e0, 2) group by $v into $k nest $v into $vs return count($vs)",
            "3 1",
        ),
        (
            "for $v in (9000000000000000000, 9e18) group by $v into $k return count(($k))",
            "1",
        ),
        (
            "for $v in (9007199254740993, 9007199254740992) group by $v into $k return count(($k))",
            "1 1",
        ),
        ("count(distinct-values((2.99999999999999999999, 3e0)))", "1"),
        ("count(distinct-values((9000000000000000000, 9e18)))", "1"),
        (
            "count(distinct-values((9007199254740993, 9007199254740992)))",
            "2",
        ),
    ] {
        assert_eq!(run(query), want, "{query}");
    }
}

#[test]
fn nest_order_by_orders_within_group() {
    // §3.4.1: nest ... order by controls the nested sequence order.
    let out = run(
        r#"for $s in (<s><r>w</r><t>3</t></s>, <s><r>w</r><t>1</t></s>,
                      <s><r>e</r><t>2</t></s>, <s><r>w</r><t>2</t></s>)
           group by $s/r into $region
           nest $s/t order by $s/t into $ts
           order by $region
           return <g>{string($region)}:{for $t in $ts return string($t)}</g>"#,
    );
    assert_eq!(out, "<g>e:2</g><g>w:1 2 3</g>");
}

#[test]
fn nest_order_by_descending() {
    let out = run(r#"for $s in (<v>1</v>, <v>3</v>, <v>2</v>)
           group by 1 into $k
           nest $s order by number($s) descending into $vs
           return string-join(for $v in $vs return string($v), ",")"#);
    assert_eq!(out, "3,2,1");
}

#[test]
fn nest_default_order_preserves_input_tuple_order() {
    let out = run(r#"for $s in (<v>b</v>, <v>c</v>, <v>a</v>)
           group by 1 into $k
           nest $s into $vs
           return string-join(for $v in $vs return string($v), "")"#);
    assert_eq!(out, "bca");
}

#[test]
fn groups_without_order_by_appear_in_first_seen_order() {
    let out = run("for $v in (3, 1, 3, 2, 1) group by $v into $k nest $v into $vs return $k");
    assert_eq!(out, "3 1 2");
}

#[test]
fn q3_nested_grouped_flwors() {
    // Paper Q3 with the extension: region/year totals vs state totals.
    let xml = r#"<sales>
        <sale><timestamp>2004-02-01T10:00:00</timestamp><product>Tea</product>
          <state>CA</state><region>West</region><quantity>10</quantity><price>2.00</price></sale>
        <sale><timestamp>2004-03-01T10:00:00</timestamp><product>Tea</product>
          <state>OR</state><region>West</region><quantity>5</quantity><price>4.00</price></sale>
        <sale><timestamp>2004-04-01T10:00:00</timestamp><product>Tea</product>
          <state>CA</state><region>West</region><quantity>1</quantity><price>20.00</price></sale>
        <sale><timestamp>2005-01-01T10:00:00</timestamp><product>Tea</product>
          <state>NY</state><region>East</region><quantity>2</quantity><price>7.00</price></sale>
    </sales>"#;
    let out = run_xml(
        r#"for $s in //sale
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
             return
               <summary>{string($region), string($year), string($state)}
                 <state-sales>{$state-sum}</state-sales>
                 <region-sales>{$region-sum}</region-sales>
                 <pct>{$state-sum * 100 div $region-sum}</pct>
               </summary>"#,
        xml,
    );
    // West 2004: CA = 40, OR = 20, region 60; East 2005: NY = 14.
    assert!(
        out.contains(
            "<summary>West 2004 CA<state-sales>40</state-sales><region-sales>60</region-sales>"
        ),
        "{out}"
    );
    assert!(out.contains("<pct>66.66666666666667</pct>"), "{out}");
    assert!(
        out.contains("<summary>West 2004 OR<state-sales>20</state-sales>"),
        "{out}"
    );
    assert!(out.contains("<summary>East 2005 NY<state-sales>14</state-sales><region-sales>14</region-sales><pct>100</pct></summary>"), "{out}");
    // Ordered by year then region: 2004/West rows precede 2005/East.
    assert!(out.find("West 2004 CA").unwrap() < out.find("West 2004 OR").unwrap());
    assert!(out.find("West 2004 OR").unwrap() < out.find("East 2005 NY").unwrap());
}

#[test]
fn q8_moving_window_over_ordered_nest() {
    // Paper §3.4.1 Q8: previous-N-sales moving window (N=2 here).
    let xml = r#"<sales>
        <sale><timestamp>2004-01-03T00:00:00</timestamp><region>W</region><quantity>1</quantity><price>3.00</price></sale>
        <sale><timestamp>2004-01-01T00:00:00</timestamp><region>W</region><quantity>1</quantity><price>1.00</price></sale>
        <sale><timestamp>2004-01-02T00:00:00</timestamp><region>W</region><quantity>1</quantity><price>2.00</price></sale>
        <sale><timestamp>2004-01-04T00:00:00</timestamp><region>W</region><quantity>1</quantity><price>4.00</price></sale>
    </sales>"#;
    let out = run_xml(
        r#"for $s in //sale
           group by $s/region into $region
           nest $s order by $s/timestamp into $rs
           return
             <region name="{string($region)}">
               {for $s1 at $i in $rs
                return
                  <sale>
                    <amount>{$s1/quantity * $s1/price}</amount>
                    <prev-two>{sum(for $s2 at $j in $rs
                                   where $j >= $i - 2 and $j < $i
                                   return $s2/quantity * $s2/price)}</prev-two>
                  </sale>}
             </region>"#,
        xml,
    );
    assert_eq!(
        out,
        "<region name=\"W\">\
         <sale><amount>1</amount><prev-two>0</prev-two></sale>\
         <sale><amount>2</amount><prev-two>1</prev-two></sale>\
         <sale><amount>3</amount><prev-two>3</prev-two></sale>\
         <sale><amount>4</amount><prev-two>5</prev-two></sale>\
         </region>"
    );
}

#[test]
fn q10_ranking_with_group_and_output_numbering() {
    // Paper §4 Q10: monthly sales ranked by region.
    let xml = r#"<sales>
        <sale><timestamp>2004-10-02T00:00:00</timestamp><region>West</region><quantity>10</quantity><price>2.00</price></sale>
        <sale><timestamp>2004-10-05T00:00:00</timestamp><region>East</region><quantity>3</quantity><price>10.00</price></sale>
        <sale><timestamp>2004-10-09T00:00:00</timestamp><region>West</region><quantity>1</quantity><price>5.00</price></sale>
        <sale><timestamp>2004-11-01T00:00:00</timestamp><region>East</region><quantity>1</quantity><price>1.00</price></sale>
    </sales>"#;
    let out = run_xml(
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
                    {$region}
                    <total-sales>{$sum}</total-sales>
                  </regional-results>}
             </monthly-report>"#,
        xml,
    );
    assert_eq!(
        out,
        "<monthly-report year=\"2004\" month=\"10\">\
         <regional-results><rank>1</rank><region>East</region><total-sales>30</total-sales></regional-results>\
         <regional-results><rank>2</rank><region>West</region><total-sales>25</total-sales></regional-results>\
         </monthly-report>\
         <monthly-report year=\"2004\" month=\"11\">\
         <regional-results><rank>1</rank><region>East</region><total-sales>1</total-sales></regional-results>\
         </monthly-report>"
    );
}

#[test]
fn q11_rollup_over_ragged_hierarchy() {
    // Paper §5 Q11 using the user-defined membership function.
    let xml = r#"<bib>
      <book><title>TP</title><price>59.00</price>
        <categories><software><db><concurrency/></db><distributed/></software></categories>
      </book>
      <book><title>Readings</title><price>65.00</price>
        <categories><software><db/></software><anthology/></categories>
      </book>
    </bib>"#;
    let out = run_xml(
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
        xml,
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
fn q11_rollup_with_builtin_membership_function() {
    // Same rollup via the xqa:paths builtin (§5: "we expect that a
    // common set of such membership functions will be provided").
    let xml = r#"<bib>
      <book><title>TP</title><price>59.00</price>
        <categories><software><db><concurrency/></db><distributed/></software></categories>
      </book>
      <book><title>Readings</title><price>65.00</price>
        <categories><software><db/></software><anthology/></categories>
      </book>
    </bib>"#;
    let out = run_xml(
        r#"for $b in //book
           for $c in xqa:paths($b/categories/*)
           group by $c into $category
           nest $b/price into $prices
           order by $category
           return <r>{$category}:{avg($prices)}</r>"#,
        xml,
    );
    assert_eq!(
        out,
        "<r>anthology:65</r><r>software:62</r><r>software/db:62</r>\
         <r>software/db/concurrency:59</r><r>software/distributed:59</r>"
    );
}

#[test]
fn q12_datacube_via_membership_function() {
    // Paper §5 Q12: cube over (publisher, year) — 4 groupings per book.
    let xml = r#"<bib>
      <book><publisher>MK</publisher><year>1993</year><price>10.00</price></book>
      <book><publisher>MK</publisher><year>1994</year><price>20.00</price></book>
      <book><year>1993</year><price>30.00</price></book>
    </bib>"#;
    let out = run_xml(
        r#"for $b in //book
           let $pub := if (empty($b/publisher)) then <publisher/> else $b/publisher
           for $d in xqa:cube(($pub, $b/year))
           group by $d into $group
           nest $b/price into $prices
           return <result>{count($prices)}|{avg($prices)}</result>"#,
        xml,
    );
    // Overall group: 3 books avg 20. Publisher groups: MK (2 books),
    // empty publisher (1). Year groups: 1993 (2), 1994 (1). Pairs:
    // (MK,1993), (MK,1994), (empty,1993).
    assert!(out.contains("<result>3|20</result>"), "{out}");
    assert!(out.contains("<result>2|15</result>"), "MK group: {out}");
    assert!(out.contains("<result>2|20</result>"), "1993 group: {out}");
    // Subset groups: {} -> 1; {publisher} -> MK, empty -> 2;
    // {year} -> 1993, 1994 -> 2; {publisher,year} -> 3. Total 8.
    let groups = out.matches("<result>").count();
    assert_eq!(groups, 8, "{out}");
}

#[test]
fn group_by_complex_node_keys() {
    // Grouping on whole elements uses structural deep-equal.
    let out = run(
        r#"for $x in (<a><b>1</b></a>, <a><b>1</b></a>, <a><b>2</b></a>)
           group by $x into $k
           nest 1 into $ones
           return count($ones)"#,
    );
    assert_eq!(out, "2 1");
}

#[test]
fn multiple_group_by_in_one_flwor_is_rejected() {
    // §3.5: only one group by clause per FLWOR.
    let engine = Engine::new();
    let err = engine
        .compile("for $b in (1,2) group by $b into $k group by $k into $j return $j")
        .unwrap_err();
    // Parses as: the second 'group' is not a valid clause keyword here,
    // so it is a syntax error.
    assert_eq!(err.code(), ErrorCode::XPST0003);
}

#[test]
fn using_function_with_wrong_result_type_errors() {
    let engine = Engine::new();
    let q = engine
        .compile(
            "declare function local:bad($a as item()*, $b as item()*) as xs:boolean { true() }; \
             for $x in (1,2) group by $x into $k using local:bad nest $x into $xs return count($xs)",
        )
        .unwrap();
    let doc = parse_document("<x/>").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    // local:bad says everything is equal -> one group of 2
    let out = q.run(&ctx).unwrap();
    assert_eq!(serialize_sequence(&out), "2");
}

#[test]
fn empty_input_produces_no_groups() {
    let out = run_xml(
        "for $b in //nothing group by $b into $k nest $b into $bs return $k",
        "<empty/>",
    );
    assert_eq!(out, "");
}

#[test]
fn where_before_group_by_filters_tuples_first() {
    let out = run("for $v in (1, 2, 3, 4, 5, 6)
         where $v mod 2 = 0
         group by $v mod 4 into $k
         nest $v into $vs
         order by $k
         return <g>{$k}:{count($vs)}</g>");
    // evens: 2,4,6 -> keys 2,0,2
    assert_eq!(out, "<g>0:1</g><g>2:2</g>");
}
