//! Keeps `docs/prometheus-alerts.yml` honest: every `oef_*` metric the
//! example alert rules reference must exist in the exposition a live daemon
//! actually renders.  Without this, a series rename silently turns the
//! shipped alerts into no-ops — rules on missing metrics never fire.  And
//! every fairness rule must be scoped to a policy that promises the property
//! it pages on, or it pages on the daemon working as designed.

use oef_cluster::ClusterTopology;
use oef_core::fairness::{self, Property};
use oef_obs::Registry;
use oef_service::{Command, Response, ServiceConfig};
use oef_shard::{placement_from_name, ShardCoordinator};
use std::collections::BTreeSet;

/// Every maximal `oef_[a-z0-9_]*` token in the rules file, wherever it
/// appears — exprs, summaries, descriptions all count as references an
/// operator will try to query.
fn referenced_metrics(rules: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let bytes = rules.as_bytes();
    let mut i = 0;
    while let Some(offset) = rules[i..].find("oef_") {
        let start = i + offset;
        let end = bytes[start..]
            .iter()
            .position(|b| !(b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_'))
            .map_or(rules.len(), |len| start + len);
        names.insert(rules[start..end].to_string());
        i = end;
    }
    names
}

fn rules_file() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/prometheus-alerts.yml"
    ))
    .expect("docs/prometheus-alerts.yml is readable")
}

/// The `oef-fairness` group's rules as `(alert, expr)` pairs, the expr's
/// lines joined.
fn fairness_rules(rules: &str) -> Vec<(String, String)> {
    let group = rules
        .split("- name: ")
        .find(|group| group.starts_with("oef-fairness"))
        .expect("the oef-fairness group exists");
    group
        .split("- alert: ")
        .skip(1)
        .map(|rule| {
            let alert = rule.lines().next().unwrap_or_default().trim().to_string();
            let expr: Vec<&str> = rule
                .lines()
                .skip_while(|line| !line.trim_start().starts_with("expr:"))
                .take_while(|line| {
                    let line = line.trim_start();
                    !(line.starts_with("for:") || line.starts_with("labels:"))
                })
                .collect();
            (alert, expr.join(" "))
        })
        .collect()
}

#[test]
fn fairness_alerts_page_only_on_promised_properties() {
    let paged = [
        ("oef_sharing_incentive", Property::SharingIncentive),
        ("oef_max_envy", Property::EnvyFree),
    ];
    let rules = fairness_rules(&rules_file());
    assert!(!rules.is_empty());
    for (alert, expr) in rules {
        let properties: Vec<Property> = paged
            .iter()
            .filter(|(metric, _)| expr.contains(metric))
            .map(|&(_, property)| property)
            .collect();
        let policies: Vec<&str> = expr
            .split("policy=\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(!properties.is_empty(), "{alert} pages on no fairness gauge");
        assert!(
            !policies.is_empty(),
            "{alert} is not scoped to a policy: {expr}"
        );
        for policy in &policies {
            for property in &properties {
                assert!(
                    fairness::PROMISES
                        .iter()
                        .any(|(row, promised)| row == policy && promised.contains(property)),
                    "{alert} pages on {} for {policy}, which does not promise it",
                    property.abbreviation()
                );
            }
        }
    }
}

#[test]
fn alert_rules_reference_only_live_metrics() {
    let rules = rules_file();
    let referenced = referenced_metrics(&rules);
    assert!(
        referenced.contains("oef_sharing_incentive") && referenced.contains("oef_max_envy"),
        "the fairness SLO rules are the point of the file"
    );

    // A two-shard daemon with a few solved rounds renders the full series
    // set the rules may draw on.
    let registry = Registry::new();
    let mut coordinator = ShardCoordinator::new(
        vec![
            ClusterTopology::paper_cluster(),
            ClusterTopology::paper_cluster(),
        ],
        ServiceConfig::default(),
        placement_from_name("least-loaded").unwrap(),
    )
    .unwrap();
    coordinator.attach_observability(&registry);
    // The attribution family is part of the shipped rule set; attach it the
    // way oef-serviced does so its series render below.
    let cost = oef_attrib::AttributionRegistry::new();
    cost.attach(&registry, 10);
    coordinator.attach_attribution(&cost);
    for i in 0..4 {
        let response = coordinator.apply(
            Command::TenantJoin {
                name: format!("alerts-{i}"),
                weight: 1,
                speedup: vec![1.0, 1.2 + 0.1 * f64::from(i), 1.7],
            },
            0,
        );
        assert!(matches!(response, Response::TenantJoined { .. }));
    }
    for _ in 0..3 {
        assert!(matches!(
            coordinator.apply(Command::Tick, 0),
            Response::RoundCompleted(_)
        ));
    }

    // The strict in-repo parser is the referee: the exposition must be
    // grammatical, and every referenced metric must resolve to a family
    // (histogram rules may reference the `_bucket`/`_sum`/`_count` samples).
    let exposition = oef_obs::parse(&registry.render()).expect("exposition parses");
    let resolves = |name: &str| {
        exposition.family(name).is_some()
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| exposition.family(base).is_some())
            })
    };
    let missing: Vec<&String> = referenced.iter().filter(|name| !resolves(name)).collect();
    assert!(
        missing.is_empty(),
        "alert rules reference metrics the daemon does not expose: {missing:?}"
    );
}
