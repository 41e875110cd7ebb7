"""repro — a reproduction of Lu & Bharghavan, "Adaptive Resource Management
Algorithms for Indoor Mobile Computing Environments" (SIGCOMM 1996).

Subpackages
-----------
``repro.des``
    Deterministic discrete-event simulation kernel (the substrate the
    paper's unreleased simulator provided).
``repro.network``
    Wired backbone: topology, links, routing, WFQ/RCSP bounds, signaling.
``repro.wireless``
    Cells, base stations, portables, handoffs, channel error model.
``repro.mobility``
    Floorplans, per-cell-class mobility models, calibrated traces.
``repro.profiles``
    Table 1's cell/portable profiles and the profile server.
``repro.traffic``
    (sigma, rho) flowspecs, connections, Figure 6 workload types, sources.
``repro.core``
    The paper's contribution: loose QoS bounds, Table 2 admission, max-min
    conflict resolution, the distributed adaptation protocol, static/mobile
    classification, next-cell prediction, per-class advance reservation.
``repro.stats``
    Blocking/dropping counters, binned series, Erlang-B/Kaufman–Roberts.
``repro.sim``
    Packaged simulators (two-cell teletraffic, full floorplan) + scenarios.
``repro.experiments``
    Drivers reproducing every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "des",
    "experiments",
    "mobility",
    "network",
    "profiles",
    "sim",
    "stats",
    "traffic",
    "wireless",
]
