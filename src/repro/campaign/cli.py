"""The ``python -m repro campaign`` subcommand family.

``campaign autopilot``
    Generate a seeded random battery and run it (the anomaly hunt).
``campaign run``
    Run an explicit battery from a scenario JSON file.
``campaign resume``
    Continue a killed campaign from its run database; the battery is
    reconstructed from the database header (autopilot seed or scenario
    file), so no other argument is needed.
``campaign report``
    Re-render the anomaly report of an existing run database.

Argument wiring lives here (registered into the top-level parser by
:func:`add_parser`) so :mod:`repro.cli` stays a thin dispatcher.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro.campaign.autopilot import PROFILES, generate_battery
from repro.campaign.database import CampaignDB
from repro.campaign.oracles import OracleConfig
from repro.campaign.report import format_text, write_report
from repro.campaign.runner import CampaignSummary, run_campaign
from repro.campaign.schema import Scenario, scenarios_from_json
from repro.experiments.report import positive_int

__all__ = ["add_parser", "cmd"]


def add_parser(subs: argparse._SubParsersAction) -> None:
    p = subs.add_parser(
        "campaign",
        help="scenario batteries: run, resume, autopilot anomaly hunts",
    )
    actions = p.add_subparsers(dest="campaign_command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--db", required=True,
                         help="run-database prefix; writes <db>.jsonl, <db>.sqlite, "
                              "<db>.report.json")
        sub.add_argument("--jobs", type=positive_int, default=1,
                         help="worker processes for scenario execution (1 = inline)")
        sub.add_argument("--timeout", type=float, default=None,
                         help="per-scenario watchdog seconds (requires --jobs > 1); "
                              "a hung scenario is abandoned and retried inline")
        sub.add_argument("--retries", type=int, default=1,
                         help="re-attempts after an infrastructure failure "
                              "(0 disables retry)")
        sub.add_argument("--backoff", type=float, default=2.0,
                         help="multiplier on the sleep between retry attempts")
        sub.add_argument("--fail-on-anomaly", action="store_true",
                         help="exit non-zero if any scenario is anomalous or failed "
                              "(CI gate)")

    def oracle_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--model-tol", type=float, default=None,
                         help="model-disagreement oracle: max relative |T_sim - "
                              "T_model| / T_model on fault-free runs (tighten to "
                              "hunt model drift)")
        sub.add_argument("--monotone-tol", type=float, default=None,
                         help="non-monotone-efficiency oracle: relative slack "
                              "before an efficiency rise in p counts as superlinear")
        sub.add_argument("--storm-factor", type=float, default=None,
                         help="retransmit-storm oracle: allowed multiple of the "
                              "expected retransmit count")
        sub.add_argument("--no-divergence", action="store_true",
                         help="skip the alternate-scheduler cross-check (halves "
                              "simulation cost, loses the scheduler-divergence oracle)")

    p_auto = actions.add_parser(
        "autopilot", help="generate a seeded random battery and hunt anomalies")
    p_auto.add_argument("--seed", type=int, default=0,
                        help="campaign seed: same seed, same battery, same run "
                             "database bytes")
    p_auto.add_argument("--count", type=int, default=50,
                        help="number of scenarios to generate")
    p_auto.add_argument("--profile", choices=sorted(PROFILES), default="default",
                        help="generation envelope (smoke = CI-sized)")
    common(p_auto)
    oracle_args(p_auto)

    p_run = actions.add_parser("run", help="run an explicit scenario battery")
    p_run.add_argument("--scenarios", required=True,
                       help="JSON file holding a list of scenario objects "
                            "(see docs/robustness.md for the schema)")
    common(p_run)
    oracle_args(p_run)

    p_res = actions.add_parser(
        "resume", help="continue a killed campaign from its run database")
    common(p_res)

    p_rep = actions.add_parser(
        "report", help="re-render the anomaly report of a run database")
    p_rep.add_argument("--db", required=True, help="run-database prefix")
    p_rep.add_argument("--json-out", default=None,
                       help="also write the report document to this file")


def _oracles_from_args(args: argparse.Namespace) -> OracleConfig:
    kwargs: dict[str, Any] = {}
    if args.model_tol is not None:
        kwargs["model_rel_tol"] = args.model_tol
    if args.monotone_tol is not None:
        kwargs["monotone_tol"] = args.monotone_tol
    if args.storm_factor is not None:
        kwargs["storm_factor"] = args.storm_factor
    if args.no_divergence:
        kwargs["divergence"] = False
    return OracleConfig(**kwargs)


def _battery_from_source(source: dict[str, Any]) -> list[Scenario]:
    """Reconstruct the battery a run database was started with."""
    kind = source.get("kind")
    if kind == "autopilot":
        return generate_battery(
            source["seed"], source["count"], PROFILES[source["profile"]]
        )
    if kind == "file":
        with open(source["path"]) as fh:
            return scenarios_from_json(fh.read(), source=source["path"])
    raise SystemExit(
        f"cannot resume a campaign with source {source!r}; only autopilot and "
        "scenario-file campaigns are resumable from the CLI"
    )


def _finish(
    db: CampaignDB, summary: CampaignSummary, fail_on_anomaly: bool
) -> str:
    doc = write_report(db)
    text = (
        format_text(doc)
        + f"\nrun database: {db.jsonl_path} (sha256 {summary.fingerprint[:12]}), "
        f"{summary.executed} of {summary.total} scenarios executed this run\n"
        f"anomaly report: {db.report_path}\n"
    )
    if fail_on_anomaly and (summary.anomalous or summary.failed):
        raise SystemExit(
            text
            + f"campaign: {summary.anomalous} anomalous and {summary.failed} failed "
            "scenarios (--fail-on-anomaly)"
        )
    return text


def cmd(args: argparse.Namespace) -> str:
    """Dispatch one ``campaign`` invocation; returns the report text."""
    sub = args.campaign_command
    db = CampaignDB(args.db)

    if sub == "report":
        doc = write_report(db)
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return format_text(doc)

    if sub == "resume":
        header = db.read_header()
        scenarios = _battery_from_source(header["source"])
        summary = run_campaign(
            scenarios, args.db,
            oracles=OracleConfig(**header["oracles"]),
            source=header["source"],
            resume=True,
            jobs=args.jobs, timeout=args.timeout,
            retries=args.retries, backoff=args.backoff,
        )
        return _finish(db, summary, args.fail_on_anomaly)

    if sub == "autopilot":
        source = {"kind": "autopilot", "seed": args.seed, "count": args.count,
                  "profile": args.profile}
        scenarios = generate_battery(args.seed, args.count, PROFILES[args.profile])
    else:  # run
        source = {"kind": "file", "path": args.scenarios}
        with open(args.scenarios) as fh:
            scenarios = scenarios_from_json(fh.read(), source=args.scenarios)
    summary = run_campaign(
        scenarios, args.db,
        oracles=_oracles_from_args(args),
        source=source,
        jobs=args.jobs, timeout=args.timeout,
        retries=args.retries, backoff=args.backoff,
    )
    return _finish(db, summary, args.fail_on_anomaly)
