"""Batch debug-campaign orchestration (the scaling layer over §IV).

The paper's economics are asymmetric: the *offline* generic stage
(synthesis, signal parameterization, TCON mapping and — physically —
pack/place/route) is expensive and runs once per design, while each
*online* debugging turn costs a microsecond-scale respecialization.  This
package exploits that asymmetry at batch scale:

* :func:`resolve_offline` — one entry point resolving a design's offline
  artifact through the stage-granular
  :class:`~repro.pipeline.ArtifactStore` (each compile stage reused
  independently under its content-addressed key — a warm config-knob
  change rebuilds only the invalidated stages), or cold;
* :mod:`~repro.workloads.scenarios` — deterministic (design, bug) scenario
  generators: emulation-level stuck-at faults (shared offline artifact)
  and netlist mutations (per-revision artifacts);
* :func:`run_scenario_batch` / :func:`localize_divergence` — the
  automated online loop: detect the failure at the primary outputs, then
  walk the divergence back through observable-frontier batches to the bug
  region, many scenarios per packed emulation;
* :func:`run_campaign` — the orchestrator: one build per distinct design
  and lane batches launched as builds land, on one dataflow scheduler and
  one worker pool, aggregated into a :class:`CampaignReport`;
* ``python -m repro.campaign`` — the CLI front-end.

Quick start::

    from repro.campaign import ArtifactStore, run_campaign
    from repro.workloads import stuck_at_scenarios

    scenarios = stuck_at_scenarios("stereov.", 4)
    report = run_campaign(scenarios, cache=ArtifactStore())
    print(report.render())
"""

from repro.campaign.cache import ArtifactStore, StoreStats, resolve_offline
from repro.campaign.localize import (
    GoldenOracle,
    Localization,
    divergence_walk,
    golden_signal_traces,
    localize_divergence,
)
from repro.campaign.orchestrator import CampaignConfig, run_campaign
from repro.campaign.results import STATUSES, CampaignReport, ScenarioResult
from repro.campaign.runner import run_scenario_batch
from repro.engine import LaneEngine
from repro.workloads.scenarios import (
    DebugScenario,
    campaign_spec,
    mutation_scenarios,
    stuck_at_scenarios,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "resolve_offline",
    "GoldenOracle",
    "LaneEngine",
    "Localization",
    "divergence_walk",
    "golden_signal_traces",
    "localize_divergence",
    "CampaignConfig",
    "run_campaign",
    "STATUSES",
    "CampaignReport",
    "ScenarioResult",
    "run_scenario_batch",
    "DebugScenario",
    "campaign_spec",
    "mutation_scenarios",
    "stuck_at_scenarios",
]
