"""Multi-tenant fair serving: sessions, schedulers, throttling, waste.

The paper's single-stream measurements say what one request costs on an
edge board; this package asks who should get the next batch slot when
several tenants want it.  It follows the FAIRSERVE decomposition:

- :mod:`repro.fairness.session` — multi-turn *interactions* whose turns
  carry cumulative context and arrive after think-time gaps;
- :mod:`repro.fairness.scheduler` — pluggable per-queue disciplines
  (FCFS, virtual-token-counter fair queueing, weighted service
  counters) shared by the cluster nodes and the single-device engine;
- :mod:`repro.fairness.throttle` — per-tenant token-rate budgets that
  turn over-issued work away at injection;
- :mod:`repro.fairness.accounting` — served / wasted / throttled token
  ledgers with conservation checks;
- :mod:`repro.fairness.sweep` — the ``repro fairness`` comparison grid.
"""

from repro.fairness.accounting import (TenantLedger, build_ledger,
                                       check_books, conservation_violations)
from repro.fairness.scheduler import (FAIRNESS_VERSION, FairScheduler,
                                      FCFSScheduler, VTCScheduler,
                                      WSCScheduler, get_fair_scheduler,
                                      list_fair_schedulers)
from repro.fairness.session import (Interaction, SessionTurn,
                                    session_requests, session_workload)
from repro.fairness.sweep import TENANT_MIXES, FairnessSpec, run_fairness
from repro.fairness.throttle import TenantBucket, TokenThrottle

__all__ = [
    "FairnessSpec",
    "TENANT_MIXES",
    "run_fairness",
    "FAIRNESS_VERSION",
    "FCFSScheduler",
    "FairScheduler",
    "Interaction",
    "SessionTurn",
    "TenantBucket",
    "TenantLedger",
    "TokenThrottle",
    "VTCScheduler",
    "WSCScheduler",
    "build_ledger",
    "check_books",
    "conservation_violations",
    "get_fair_scheduler",
    "list_fair_schedulers",
    "session_requests",
    "session_workload",
]
