use rdms::checker::{Explorer, ExplorerConfig, Reuse, Verdict, Workspace};
use rdms::core::dms::example_3_1;
use rdms::db::parser::parse_query;

#[test]
fn probe_complete_flag_on_explored_set_reuse() {
    let depth = 3;
    let dms = example_3_1();
    let inv_a = parse_query("true").unwrap();
    let inv_b = parse_query("!exists u. R(u) & Q(u)").unwrap();

    let mut ws = Workspace::new(dms.clone(), 2, inv_a.clone()).with_depth(depth);
    let first = ws.check();
    let first_complete = matches!(first, Verdict::Holds { complete, .. } if complete);
    println!(
        "first check: holds={}, complete={}",
        first.holds(),
        first_complete
    );

    ws.set_target(inv_b.clone());
    let second = ws.check();
    println!("reuse = {:?}", ws.last_report().reuse);
    let ws_complete = matches!(second, Verdict::Holds { complete, .. } if complete);

    let scratch = Explorer::new(&dms, 2)
        .with_config(ExplorerConfig {
            depth,
            ..ExplorerConfig::default()
        })
        .run(inv_b);
    let scratch_complete = matches!(scratch, Verdict::Holds { complete, .. } if complete);
    println!(
        "workspace: holds={} complete={} | scratch: holds={} complete={}",
        second.holds(),
        ws_complete,
        scratch.holds(),
        scratch_complete
    );
    assert_eq!(ws.last_report().reuse, Reuse::ExploredSetReused);
    assert_eq!(
        ws_complete, scratch_complete,
        "completeness flag diverges between reuse and scratch"
    );
}
