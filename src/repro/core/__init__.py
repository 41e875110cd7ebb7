"""The paper's primary contribution: adaptive resource management.

Subpackage map (paper section in parentheses):

* :mod:`~repro.core.qos` — loose QoS bounds (2.1, 5.1)
* :mod:`~repro.core.admission` — Table 2 round-trip admission control (5.1)
* :mod:`~repro.core.maxmin` — max-min conflict resolution (5.2); the live
  resolver is :meth:`~repro.core.manager.CellularResourceManager.rebalance`
* :mod:`~repro.core.adaptation` — distributed event-driven bandwidth
  adaptation (5.3)
* :mod:`~repro.core.statmob` — static/mobile classification (3.4.2)
* :mod:`~repro.core.prediction` — three-level next-cell prediction (6)
* :mod:`~repro.core.meeting` / :mod:`~repro.core.lounge` — class-specific
  advance reservation (6.1–6.2)
* :mod:`~repro.core.probabilistic` — default probabilistic reservation (6.3)
* :mod:`~repro.core.classifier` — cell-type learning (6.4)
* :mod:`~repro.core.reservation` — reservation ledgers and ``B_dyn`` pools
* :mod:`~repro.core.manager` — the Figure 1 orchestration
"""

from .admission import AdmissionController, AdmissionResult, RejectReason
from .backbone import BackboneManager, BackboneSetup
from .adaptation import AdaptationProtocol, LinkRateState, compute_advertised_rate
from .classifier import (
    CellBehaviorClassifier,
    CellFeatures,
    CellTypeLearner,
    extract_features,
)
from .lounge import CafeteriaReservation, DefaultLoungeReservation, SlotCounter
from .manager import CellularResourceManager
from .maxmin import (
    MaxMinProblem,
    connection_bottlenecks,
    is_maxmin_fair,
    maxmin_allocation,
    network_bottleneck_links,
)
from .meeting import MeetingRoomReservation
from .prediction import (
    Prediction,
    PredictionLevel,
    ProfileAwarePredictor,
    linear_ls_fit,
    linear_ls_predict,
    one_step_memory_predict,
    paper_printed_predict,
)
from .probabilistic import (
    ProbabilisticAdmission,
    handoff_in_probability,
    nonblocking_probability,
    reserved_bandwidth,
    stay_probability,
    weighted_binomial_sum_pmf,
)
from .qos import QoSBounds, QoSRequest, ServiceClass, audio_request, video_request
from .reservation import CellReservations
from .statmob import PortableState, StaticMobileClassifier

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "RejectReason",
    "BackboneManager",
    "BackboneSetup",
    "AdaptationProtocol",
    "LinkRateState",
    "compute_advertised_rate",
    "CellBehaviorClassifier",
    "CellFeatures",
    "CellTypeLearner",
    "extract_features",
    "CafeteriaReservation",
    "DefaultLoungeReservation",
    "SlotCounter",
    "CellularResourceManager",
    "MaxMinProblem",
    "connection_bottlenecks",
    "is_maxmin_fair",
    "maxmin_allocation",
    "network_bottleneck_links",
    "MeetingRoomReservation",
    "Prediction",
    "PredictionLevel",
    "ProfileAwarePredictor",
    "linear_ls_fit",
    "linear_ls_predict",
    "one_step_memory_predict",
    "paper_printed_predict",
    "ProbabilisticAdmission",
    "handoff_in_probability",
    "nonblocking_probability",
    "reserved_bandwidth",
    "stay_probability",
    "weighted_binomial_sum_pmf",
    "QoSBounds",
    "QoSRequest",
    "ServiceClass",
    "audio_request",
    "video_request",
    "CellReservations",
    "PortableState",
    "StaticMobileClassifier",
]
