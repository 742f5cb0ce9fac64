//! `gbjbench merge` and `gbjbench compare`: one file per set of runs, and
//! the verdict on two of them.

use crate::json::Json;
use crate::report::{print_human, END_TO_END, EXACT};
use crate::stats::quartile_spread;

/// Merge per-process result files into one
/// `{"header", "workloads": {name: {"run": …, "trace": …}}}`, print every
/// metric, and say whether every check passed.
pub fn merge(inputs: &[String]) -> Result<(Json, bool), String> {
    let mut workloads: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    let mut header = Json::Null;
    let mut all_correct = true;
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut result = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let name = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?
            .to_string();
        print_human(&result);
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        let mode = if result.get("per_layer").is_some() {
            "trace"
        } else {
            "run"
        };
        if let Json::Obj(pairs) = &mut result {
            // Spans stay in the per-workload trace file.
            pairs.retain(|(k, _)| k != "spans");
            if let Some((_, h)) = pairs.iter().find(|(k, _)| k == "header") {
                header = h.clone();
            }
        }
        match workloads.iter_mut().find(|(n, _)| *n == name) {
            Some((_, modes)) => modes.push((mode.into(), result)),
            None => workloads.push((name, vec![(mode.into(), result)])),
        }
    }
    let merged = Json::obj([
        ("header", header),
        (
            "workloads",
            Json::Obj(
                workloads
                    .into_iter()
                    .map(|(n, modes)| (n, Json::Obj(modes)))
                    .collect(),
            ),
        ),
    ]);
    Ok((merged, all_correct))
}

fn value_of(m: &Json) -> Option<f64> {
    m.get("value").and_then(Json::as_f64)
}

/// The quartile spread of a metric's per-round values, as a share of
/// their median.
fn spread_of(m: &Json) -> Option<f64> {
    let parts: Vec<f64> = m
        .get("parts")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    quartile_spread(&parts)
}

/// One row per (metric, workload). Returns whether `b` is acceptable
/// against `a`: no end-to-end metric worse by more than its bound, no
/// exact metric different, no higher failed share.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |j: &Json| -> Result<Vec<(String, Json)>, String> {
        let w = j.get("workloads").and_then(Json::as_obj);
        w.map(<[_]>::to_vec)
            .ok_or_else(|| "not a merged result file (no \"workloads\")".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut ok = true;
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<16} missing from b");
            ok = false;
            continue;
        };
        let row =
            |metric: &str, va: f64, vb: f64, worse: Option<f64>, bound: &str, verdict: &str| {
                let worse = worse.map_or("-".to_string(), |w| format!("{:+.1}%", w * 100.0));
                println!(
                "{name:<16} {metric:<34} {va:>14.4} {vb:>14.4} {worse:>9} {bound:>7}  {verdict}"
            );
            };
        // End-to-end metrics come from the untraced process.
        let e2e = |r: &Json, metric: &str| r.get("run")?.get("end_to_end")?.get(metric).cloned();
        for (metric, _, better, bound) in END_TO_END {
            let (Some(ma), Some(mb)) = (e2e(ra, metric), e2e(rb, metric)) else {
                println!("{name:<16} {metric:<34} missing on one side");
                ok = false;
                continue;
            };
            let (Some(va), Some(vb)) = (value_of(&ma), value_of(&mb)) else {
                continue;
            };
            let worse = if better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let spread = spread_of(&ma)
                .into_iter()
                .chain(spread_of(&mb))
                .fold(0.0, f64::max);
            let verdict = if spread > bound {
                format!("unresolved (round spread {:.0}%)", spread * 100.0)
            } else if worse > bound {
                ok = false;
                "REGRESSION".to_string()
            } else {
                "ok".to_string()
            };
            let bound = format!("{:.0}%", bound * 100.0);
            row(metric, va, vb, Some(worse), &bound, &verdict);
        }
        // Failures and exact counts: either process may report them.
        for mode in ["run", "trace"] {
            let (Some(pa), Some(pb)) = (ra.get(mode), rb.get(mode)) else {
                continue;
            };
            let share = |p: &Json| p.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
            let verdict = if share(pb) > share(pa) {
                ok = false;
                "MORE FAILURES"
            } else {
                "ok"
            };
            row(
                &format!("failed_share ({mode})"),
                share(pa),
                share(pb),
                None,
                "0",
                verdict,
            );
            let (ea, eb) = (pa.get("exact"), pb.get("exact"));
            for (key, va) in ea.and_then(Json::as_obj).unwrap_or_default() {
                let same = eb.and_then(|e| e.get(key)) == Some(va);
                ok &= same;
                let verdict = if same { "same" } else { "DIFFERENT" };
                println!(
                    "{name:<16} {:<34} {:>14} {:>14} {:>9} {:>7}  {verdict}",
                    format!("{key} ({mode})"),
                    va.line(),
                    eb.and_then(|e| e.get(key)).map_or("-".into(), Json::line),
                    "-",
                    "exact"
                );
            }
        }
        let layers = |r: &Json| r.get("trace")?.get("per_layer").cloned();
        let (Some(la), Some(lb)) = (layers(ra), layers(rb)) else {
            continue;
        };
        for (metric, ma) in la.as_obj().unwrap_or_default() {
            let (Some(va), Some(vb)) = (value_of(ma), lb.get(metric).and_then(value_of)) else {
                continue;
            };
            if EXACT.contains(&metric.as_str()) {
                let same = va == vb;
                ok &= same;
                row(
                    metric,
                    va,
                    vb,
                    None,
                    "exact",
                    if same { "same" } else { "DIFFERENT" },
                );
            } else {
                // No bound: layer numbers explain, they do not gate.
                let change = (va != 0.0).then(|| vb / va - 1.0);
                row(metric, va, vb, change, "-", "layer");
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(p50: f64, rounds: &[f64], checksum: &str, failed_share: f64) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|e| {
            let (value, parts) = if e.0 == "latency_p50_ms" {
                (p50, Json::nums(rounds))
            } else {
                (1.0, Json::nums(&[1.0, 1.0, 1.0]))
            };
            (
                e.0,
                Json::obj([("value", Json::Num(value)), ("parts", parts)]),
            )
        }));
        let run = Json::obj([
            ("failed_share", Json::Num(failed_share)),
            (
                "exact",
                Json::obj([("result_checksum", Json::str(checksum))]),
            ),
            ("end_to_end", e2e),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([("serve_hot", Json::obj([("run", run)]))]),
        )])
    }

    #[test]
    fn compare_applies_bounds_exactness_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let bound = END_TO_END[0].3;
        let (inside, outside) = (10.0 * (1.0 + 0.9 * bound), 10.0 * (1.0 + 1.2 * bound));
        let base = merged(10.0, &steady, "abc", 0.0);
        assert!(compare(&base, &merged(inside, &steady, "abc", 0.0)).unwrap());
        assert!(!compare(&base, &merged(outside, &steady, "abc", 0.0)).unwrap());
        assert!(
            compare(&merged(outside, &steady, "abc", 0.0), &base).unwrap(),
            "an improvement passes"
        );
        assert!(!compare(&base, &merged(10.0, &steady, "abd", 0.0)).unwrap());
        assert!(!compare(&base, &merged(10.0, &steady, "abc", 0.01)).unwrap());
        // Rounds that disagree by more than the bound: the difference is
        // reported as unresolved, not as a regression.
        let noisy = [8.0, 12.0, 10.0, 7.0, 13.0];
        assert!(compare(&base, &merged(outside, &noisy, "abc", 0.0)).unwrap());
        assert!(compare(&Json::Null, &base).is_err());
    }
}
