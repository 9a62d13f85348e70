"""Render experiment results in the paper's table/figure layouts.

Everything prints as aligned plain text (the offline environment has no
plotting stack); figures become ASCII bar/line sketches faithful enough to
eyeball the paper's shapes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

import numpy as np


def _fmt(value: float, std: float | None = None, scale: float = 100.0) -> str:
    if std is not None:
        return f"{value * scale:6.2f}±{std * scale:4.2f}"
    return f"{value * scale:6.2f}"


def render_node_clf_table(result: Dict) -> str:
    """Tables II / III / VI / VII: model × dataset macro/micro-F1 grid."""
    datasets = result["datasets"]
    lines = [f"=== Table {result['table']} ==="]
    header = f"{'model':24s}" + "".join(
        f"{d + ' macro':>16s}{d + ' micro':>16s}{'time':>10s}"
        for d in datasets)
    lines.append(header)
    for model, per_ds in result["rows"].items():
        cells = []
        for ds_name in datasets:
            row = per_ds[ds_name]
            cells.append(f"{_fmt(row['macro_f1'], row.get('macro_f1_std')):>16s}")
            cells.append(f"{_fmt(row['micro_f1'], row.get('micro_f1_std')):>16s}")
            cells.append(f"{row.get('runtime_total', float('nan')):9.1f}s")
        lines.append(f"{model:24s}" + "".join(cells))
    return "\n".join(lines)


def render_table4(result: Dict) -> str:
    lines = ["=== Table IV (runtime decomposition, seconds) ==="]
    lines.append(f"{'dataset':8s}{'model':22s}{'pre-learn':>10s}{'search':>10s}"
                 f"{'train/retrain':>14s}{'total':>10s}{'speedup':>9s}")
    for ds_name, per_model in result["rows"].items():
        for backbone, row in per_model.items():
            lines.append(
                f"{ds_name:8s}{backbone + '-hgnnac':22s}"
                f"{row['hgnnac_prelearn']:10.2f}{'/':>10s}"
                f"{row['hgnnac_train']:14.2f}{row['hgnnac_total']:10.2f}"
                f"{row['speedup']:8.1f}x")
            lines.append(
                f"{ds_name:8s}{backbone + '-autoac':22s}"
                f"{'/':>10s}{row['autoac_search']:10.2f}"
                f"{row['autoac_retrain']:14.2f}{row['autoac_total']:10.2f}"
                f"{'':>9s}")
    return "\n".join(lines)


def render_table5(result: Dict) -> str:
    datasets = result["datasets"]
    lines = [f"=== Table V (link prediction, {result['mask_rate']:.0%} masked) ==="]
    header = f"{'model':22s}" + "".join(
        f"{d + ' AUC':>12s}{d + ' MRR':>12s}" for d in datasets)
    lines.append(header)
    for model, per_ds in result["rows"].items():
        cells = []
        for ds_name in datasets:
            row = per_ds[ds_name]
            cells.append(f"{row['roc_auc'] * 100:11.2f} ")
            cells.append(f"{row['mrr'] * 100:11.2f} ")
        lines.append(f"{model:22s}" + "".join(cells))
    return "\n".join(lines)


def render_table8(result: Dict) -> str:
    datasets = result["datasets"]
    lines = ["=== Table VIII (discrete constraints ablation) ==="]
    header = f"{'model':26s}" + "".join(
        f"{d + ' macro':>14s}{d + ' srch(s)':>12s}" for d in datasets)
    lines.append(header)
    for model, per_ds in result["rows"].items():
        cells = []
        for ds_name in datasets:
            row = per_ds[ds_name]
            cells.append(f"{_fmt(row['macro_f1'], row.get('macro_f1_std')):>14s}")
            cells.append(f"{row['search_seconds']:11.2f} ")
        lines.append(f"{model:26s}" + "".join(cells))
    return "\n".join(lines)


def render_table9(result: Dict) -> str:
    lines = ["=== Table IX (attribute missing rates) ==="]
    lines.append(f"{'dataset':8s}{'missing rate':>13s}  "
                 f"{'missing types':32s}{'macro':>14s}{'micro':>14s}")
    for ds_name, ladder in result["rows"].items():
        for row in ladder:
            types = ",".join(row["missing_types"]) or "/"
            lines.append(
                f"{ds_name:8s}{row['missing_rate']:12.0%}  {types:32s}"
                f"{_fmt(row['macro_f1'], row.get('macro_f1_std')):>14s}"
                f"{_fmt(row['micro_f1'], row.get('micro_f1_std')):>14s}")
    return "\n".join(lines)


def render_table10(result: Dict) -> str:
    lines = ["=== Table X (masked edge rates) ==="]
    lines.append(f"{'dataset':8s}{'masked':>8s}{'base AUC':>10s}{'base MRR':>10s}"
                 f"{'AutoAC AUC':>12s}{'AutoAC MRR':>12s}")
    for ds_name, ladder in result["rows"].items():
        for row in ladder:
            lines.append(
                f"{ds_name:8s}{row['mask_rate']:8.0%}"
                f"{row['baseline_roc_auc'] * 100:10.2f}"
                f"{row['baseline_mrr'] * 100:10.2f}"
                f"{row['autoac_roc_auc'] * 100:12.2f}"
                f"{row['autoac_mrr'] * 100:12.2f}")
    return "\n".join(lines)


def render_bar_chart(values: Dict[str, float], width: int = 40,
                     scale: float = 100.0) -> List[str]:
    lines = []
    top = max(values.values()) if values else 1.0
    for key, value in values.items():
        bar = "#" * int(round(width * value / max(top, 1e-9)))
        lines.append(f"  {str(key):>14s} |{bar:<{width}s}| {value * scale:6.2f}")
    return lines


def render_figure3(result: Dict) -> str:
    lines = ["=== Figure 3 (clustering methods, macro-F1) ==="]
    for backbone, per_ds in result["series"].items():
        for ds_name, per_method in per_ds.items():
            lines.append(f"[{backbone} / {ds_name}]")
            lines.extend(render_bar_chart(per_method))
    return "\n".join(lines)


def render_figure4(result: Dict, width: int = 60) -> str:
    lines = ["=== Figure 4 (L_GmoC convergence) ==="]
    for ds_name, trace in result["traces"].items():
        if not trace:
            continue
        arr = np.asarray(trace)
        lo, hi = float(arr.min()), float(arr.max())
        span = max(hi - lo, 1e-9)
        sparkline = "".join(
            " .:-=+*#%@"[min(int((v - lo) / span * 9), 9)] for v in arr[:width])
        lines.append(f"  {ds_name:8s} start={arr[0]:7.4f} end={arr[-1]:7.4f}  "
                     f"[{sparkline}]")
    return "\n".join(lines)


def render_figure5(result: Dict) -> str:
    lines = ["=== Figure 5 (searched op distribution) ==="]
    for backbone, per_ds in result["distributions"].items():
        for ds_name, dist in per_ds.items():
            lines.append(f"[{backbone} / {ds_name}]")
            lines.extend(render_bar_chart(dist, scale=100.0))
    return "\n".join(lines)


def render_figure6_7(result: Dict) -> str:
    lines = ["=== Figures 6/7 (per-node-type op distribution) ==="]
    for ds_name, per_type in result["per_type"].items():
        for type_name, dist in per_type.items():
            lines.append(f"[{ds_name} / {type_name}]")
            lines.extend(render_bar_chart(dist, scale=100.0))
    return "\n".join(lines)


def render_sweep(result: Dict, series_key: str, x_label: str) -> str:
    lines = [f"=== Figure {result['figure']} ({x_label} sweep, macro-F1) ==="]
    for backbone, per_ds in result[series_key].items():
        for ds_name, sweep in per_ds.items():
            pts = "  ".join(f"{x}:{y * 100:5.2f}" for x, y in sweep.items())
            lines.append(f"  {backbone:12s} {ds_name:6s}  {pts}")
    return "\n".join(lines)


def render_figure10_11(result: Dict) -> str:
    lines = ["=== Figures 10/11 (alpha lr / weight-decay sweeps, macro-F1) ==="]
    for ds_name, sweep in result["lr_series"].items():
        pts = "  ".join(f"{x:.0e}:{y * 100:5.2f}" for x, y in sweep.items())
        lines.append(f"  lr  {ds_name:6s}  {pts}")
    for ds_name, sweep in result["wd_series"].items():
        pts = "  ".join(f"{x:.0e}:{y * 100:5.2f}" for x, y in sweep.items())
        lines.append(f"  wd  {ds_name:6s}  {pts}")
    return "\n".join(lines)


def render_runs_index(rows: Sequence[Dict]) -> str:
    """The ``repro runs list`` table: one line per registered run.

    ``rows`` are :meth:`repro.runs.RunRecord.summary` dicts.
    """
    if not rows:
        return "no runs registered"
    lines = [f"{'name':<32s} {'strategy':>10s} {'trials':>6s} "
             f"{'failed':>6s} {'deaths':>6s} {'best':>8s} {'stopped':<s}"]
    for row in rows:
        best = ("       —" if row["best_score"] is None
                else f"{row['best_score']:8.4f}")
        lines.append(f"{row['name']:<32s} {row['strategy']:>10s} "
                     f"{row['trials']:>6d} {row['failed']:>6d} "
                     f"{row['worker_deaths']:>6d} {best} "
                     f"{row['stopped'] or '—'}")
    return "\n".join(lines)


def render_run_diff(diff) -> str:
    """The ``repro runs compare`` report (a :class:`repro.runs.RunDiff`)."""
    lines = [f"=== {diff.a.name} vs {diff.b.name} ==="]
    if diff.same_setup:
        lines.append("configs: identical setups")
    else:
        lines.append("configs:")
        for row in diff.config:
            lines.append(f"  {row['path']:<32s} {row['a']!r:>16s} -> "
                         f"{row['b']!r}")
    best_a, best_b = diff.a.best, diff.b.best
    for label, best in ((diff.a.name, best_a), (diff.b.name, best_b)):
        if best is None:
            lines.append(f"best [{label}]: no completed trials")
        else:
            lines.append(f"best [{label}]: trial {best.trial_id} "
                         f"score {float(best.score):.4f}")
    if diff.best_delta is not None:
        lines.append(f"best delta (b - a): {diff.best_delta:+.4f}")
    if diff.shared_trials:
        lines.append(f"shared trials ({len(diff.shared_trials)}):")
        lines.append(f"  {'trial':>5s} {'a':>8s} {'b':>8s} {'delta':>8s}")
        for row in diff.shared_trials:
            lines.append(f"  {row['trial_id']:>5d} {row['a']:>8.4f} "
                         f"{row['b']:>8.4f} {row['delta']:>+8.4f}")
    return "\n".join(lines)


def to_json(result: Dict) -> str:
    """JSON dump with numpy arrays/scalars converted."""
    def convert(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"not serializable: {type(obj)}")

    return json.dumps(result, default=convert, indent=2)


__all__ = [
    "render_node_clf_table",
    "render_table4",
    "render_table5",
    "render_table8",
    "render_table9",
    "render_table10",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6_7",
    "render_sweep",
    "render_figure10_11",
    "render_bar_chart",
    "render_runs_index",
    "render_run_diff",
    "to_json",
]
