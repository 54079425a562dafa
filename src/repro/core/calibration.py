"""Extracting model parameters from benchmark curves (§IV-A2).

The paper instantiates the model from the measured bandwidth curves of
two placements: "the evolution of the bandwidths over the number of
computing cores is analyzed (it mostly looks for minima and maxima) and
the parameters of the model are computed".  This module implements that
analysis:

* ``T_seq_max`` / ``N_seq_max`` — maximum of the computation-alone curve;
* ``T_par_max`` / ``N_par_max`` — maximum of the stacked parallel curve;
* ``T_par_max2`` — stacked parallel bandwidth at ``N_seq_max`` cores;
* ``δl`` — from the drop between the two maxima;
* ``δr`` — least-squares slope of the stacked curve past ``N_seq_max``
  (more robust to measurement noise than the two-point formula, and
  identical on noiseless data);
* ``B_comp_seq`` — per-core bandwidth at the smallest measured count;
* ``B_comm_seq`` — median of the communication-alone measurements;
* ``α`` — worst observed ``B_comm_par / B_comm_seq`` ratio.
"""

from __future__ import annotations

import logging
import numpy as np

from repro.bench.results import ModeCurves, PlatformDataset
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel
from repro.errors import CalibrationError
from repro.topology.platforms import Platform

log = logging.getLogger("repro.core")

__all__ = ["calibrate", "calibrate_placement_model"]


def calibrate(curves: ModeCurves) -> ModelParameters:
    """Extract a :class:`ModelParameters` set from one placement's curves."""
    ns = curves.core_counts
    if ns.size < 3:
        raise CalibrationError(
            f"calibration needs at least 3 core counts, got {ns.size}"
        )

    comp_alone = curves.comp_alone
    stacked = curves.total_parallel()

    # --- communication nominal bandwidth and worst-case factor -------------
    b_comm_seq = float(np.median(curves.comm_alone))
    if b_comm_seq <= 0.0:
        raise CalibrationError("communication-alone bandwidth is zero")
    alpha = float(np.min(curves.comm_parallel) / b_comm_seq)
    alpha = float(np.clip(alpha, 1e-6, 1.0))

    # --- per-core computation bandwidth --------------------------------------
    n0 = int(ns[0])
    b_comp_seq = float(comp_alone[0]) / n0
    if b_comp_seq <= 0.0:
        raise CalibrationError("per-core computation bandwidth is zero")

    # --- maxima ----------------------------------------------------------------
    i_seq = int(np.argmax(comp_alone))
    n_seq_max = int(ns[i_seq])
    t_seq_max = float(comp_alone[i_seq])

    i_par = int(np.argmax(stacked))
    n_par_max = int(ns[i_par])
    t_par_max = float(stacked[i_par])

    if n_par_max > n_seq_max:
        # Measurement noise can push the parallel peak past the
        # computation-alone peak; the model requires N_par <= N_seq.
        n_par_max = n_seq_max
        i_par = i_seq
        t_par_max = float(stacked[i_par])

    t_par_max2 = float(stacked[i_seq])
    t_par_max2 = min(t_par_max2, t_par_max)  # guard against noise inversions

    # --- slopes ------------------------------------------------------------------
    if n_seq_max > n_par_max:
        delta_l = (t_par_max - t_par_max2) / (n_seq_max - n_par_max)
    else:
        delta_l = 0.0
    delta_l = max(delta_l, 0.0)

    tail = ns >= n_seq_max
    if int(np.count_nonzero(tail)) >= 3:
        slope = np.polyfit(ns[tail].astype(float), stacked[tail], 1)[0]
        delta_r = max(-float(slope), 0.0)
    elif int(np.count_nonzero(tail)) == 2:
        xs = ns[tail].astype(float)
        ys = stacked[tail]
        delta_r = max(-(float(ys[1] - ys[0]) / float(xs[1] - xs[0])), 0.0)
    else:
        delta_r = 0.0

    return ModelParameters(
        n_par_max=n_par_max,
        t_par_max=t_par_max,
        n_seq_max=n_seq_max,
        t_seq_max=t_seq_max,
        t_par_max2=t_par_max2,
        delta_l=delta_l,
        delta_r=delta_r,
        b_comp_seq=b_comp_seq,
        b_comm_seq=b_comm_seq,
        alpha=alpha,
    )


def calibrate_placement_model(
    dataset: PlatformDataset, platform: Platform, side: type = ModelParameters
) -> PlacementModel:
    """Calibrate a model's local and remote sides from a platform dataset.

    Every model is calibrated this way, from the two sample placements
    of §IV-A2 (local/local on the first node of socket 0, remote/remote
    on the first node of socket 1); any additional placements are
    ignored — they are evaluation data, not calibration data.  ``side``
    is the model's side class: the paper's :class:`ModelParameters`, or
    a backend's (:class:`~repro.backends.base.SideBackend`).  Its
    ``fit(curves, *, platform, placement)`` fits one placement.
    """
    local_node = platform.sample_local_node()
    remote_node = platform.sample_remote_node()
    keys = ((local_node, local_node), (remote_node, remote_node))
    for key in keys:
        if key not in dataset.sweep:
            raise CalibrationError(
                f"dataset for {dataset.platform_name!r} lacks the sample "
                f"placement {key}; measured: {dataset.sweep.placements()}"
            )
    log.debug(
        "calibrating %s from sample placements %s and %s",
        dataset.platform_name,
        *keys,
    )
    local, remote = (
        side.fit(
            dataset.sweep[key], platform=dataset.platform_name, placement=key
        )
        for key in keys
    )
    return PlacementModel(
        local,
        remote,
        nodes_per_socket=platform.nodes_per_socket,
        n_numa_nodes=platform.machine.n_numa_nodes,
    )
