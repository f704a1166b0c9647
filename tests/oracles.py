"""Reference forms that only the tests use.

Each restates a quantity the program computes another way: element
positions and wave vectors derive the steering phases from first
principles, correlation_matrix is the single-user covariance,
node_responses and reference_correlation_matrices write the one-ring
quadrature out in the element domain, orthogonality_defect is one
pairwise steering correlation, and the per-user grouping and
interference map restate the array trial state.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from hapsim.allocation import assign_resource_blocks, cluster_users
from hapsim.channel import _axis_nodes, composite_steering, correlation_matrices
from hapsim.dofgrid import GridCell, steering_correlation
from hapsim.geometry import AngularCoordinates, ArrayConfig, element_indices
from hapsim.rate import build_cluster_precoders, build_interference_map


def element_position(m: int, cfg: ArrayConfig) -> np.ndarray:
    """Coordinates of element m (1-based) in meters: [0, i*d_h*lam, j*d_v*lam]."""
    if not 1 <= m <= cfg.m_total:
        raise ValueError(f"element index {m} outside 1..{cfg.m_total}")
    i = (m - 1) % cfg.m_x
    j = (m - 1) // cfg.m_x
    lam = cfg.wavelength
    return np.array([0.0, i * cfg.d_h * lam, j * cfg.d_v * lam])


def wave_vector(azimuth: float, elevation: float, wavelength: float) -> np.ndarray:
    """Propagation vector (2*pi/lam) * [cos(th)cos(ph), cos(th)sin(ph), sin(th)]."""
    k = 2.0 * np.pi / wavelength
    ct = np.cos(elevation)
    return k * np.array([ct * np.cos(azimuth), ct * np.sin(azimuth), np.sin(elevation)])


def array_wave_vector(azimuth: float, elevation: float, wavelength: float) -> np.ndarray:
    """Wave vector producing the array's beam-space phases for a ground direction.

    The per-element phase convention is exp(-j*pi*(i*mu_phi + j*mu_h)) at
    half-wavelength spacing. Feeding the raw ground-view angles into
    wave_vector does not reproduce that; shifting both angles by a quarter
    turn does, uniquely:

        y component -> -(2*pi/lam) * sin(theta)cos(phi) = -(2*pi/lam) * mu_phi
        z component -> -(2*pi/lam) * cos(theta)         = -(2*pi/lam) * mu_h

    (elements have x = 0, so the x component never enters a phase).
    """
    return wave_vector(azimuth - np.pi / 2.0, elevation - np.pi / 2.0, wavelength)


def correlation_matrix(angles, spread, beta_nlos, cfg, quadrature_points=32):
    """One-ring covariance of a single user; see correlation_matrices."""
    return correlation_matrices(
        np.array([float(angles.azimuth)]),
        np.array([float(angles.elevation)]),
        spread,
        np.array([float(beta_nlos)]),
        cfg,
        quadrature_points,
    )[0]


def node_responses(azimuth, elevation, spread, cfg, quadrature_points):
    """Un-normalized array responses at every (phi, theta) node of each
    user's one-ring box, shape (N, M, nodes), and the nodes' product
    weights, which sum to 1.

    Element j*m_x + i of the response at node (phi, th) is
    exp(-2j*pi*(i*d_h*sin(th)*cos(phi) + j*d_v*cos(th))).
    """
    i_idx, j_idx = element_indices(cfg)
    phis, w_phi = _axis_nodes(np.asarray(azimuth, dtype=float), spread.delta_phi,
                              quadrature_points)
    thes, w_th = _axis_nodes(np.asarray(elevation, dtype=float), spread.delta_theta,
                             quadrature_points)
    # node (a, b) is (phis[:, a], thes[:, b]), flattened phi-major
    shape = (len(phis), phis.shape[1], thes.shape[1])
    mu_phi = (np.sin(thes)[:, None, :] * np.cos(phis)[:, :, None]).reshape(len(phis), -1)
    mu_h = np.broadcast_to(np.cos(thes)[:, None, :], shape).reshape(len(phis), -1)
    phase = (cfg.d_h * (i_idx[:, None] * mu_phi[:, None, :])
             + cfg.d_v * (j_idx[:, None] * mu_h[:, None, :]))
    return np.exp(-2j * np.pi * phase), np.outer(w_phi, w_th).ravel()


def reference_correlation_matrices(angles, spread, beta_nlos, cfg, quadrature_points):
    """Element-domain one-ring covariances, beta * V diag(w) V^H per user.

    V holds the un-normalized array response at every (phi, theta) node, so
    this is the quadrature of the integral in correlation_matrices written
    out over all M^2 entries, without the lag structure.
    """
    mats = []
    for a, beta in zip(angles, beta_nlos):
        v, w = node_responses([a.azimuth], [a.elevation], spread, cfg, quadrature_points)
        mats.append(beta * (v[0] * w) @ v[0].conj().T)
    return np.array(mats)


def orthogonality_defect(
    angles_i: AngularCoordinates, angles_k: AngularCoordinates, cfg: ArrayConfig
) -> float:
    """|v_i^H v_k| of two users' composite steering vectors."""
    return float(
        steering_correlation(
            angles_i.mu_phi - angles_k.mu_phi, angles_i.mu_h - angles_k.mu_h, cfg
        )
    )


# -- per-user grouping and interference map ------------------------------------
#
# The dict-based forms that allocation.cluster_users and
# rate.build_interference_map replaced. They group through dicts keyed by
# cells and (sector, cluster) pairs and build the map one user at a time;
# the array forms must equal them exactly.


@dataclass(frozen=True)
class ServedUser:
    """One scheduled user, as the per-user forms take it."""

    user_id: int
    cell: GridCell
    mu_phi: float
    mu_h: float
    channel: np.ndarray
    time_share: float = 1.0


@dataclass(frozen=True)
class Cluster:
    """All users of one subsection index, with per-user time shares."""

    subsection_id: int
    members: tuple[tuple[int, GridCell], ...]  # (user id, cell), sorted by id
    time_shares: dict[int, float]


def cluster_users_ref(located):
    """Group (user id, cell) pairs into clusters by subsection index;
    members of one cell split its airtime equally. Sorted by subsection
    id, members by user id."""
    by_subsection = {}
    occupancy = {}
    for uid, cell in located:
        by_subsection.setdefault(cell.subsection, []).append((uid, cell))
        occupancy[cell] = occupancy.get(cell, 0) + 1
    clusters = []
    for l in sorted(by_subsection):
        members = tuple(sorted(by_subsection[l]))
        shares = {uid: 1.0 / occupancy[cell] for uid, cell in members}
        clusters.append(Cluster(subsection_id=l, members=members, time_shares=shares))
    return clusters


def group_members_ref(users):
    """Positions in users per (sector, cluster) group, in first-seen group
    order, members ordered by user id."""
    groups = {}
    for i, u in enumerate(users):
        groups.setdefault((u.cell.sector, u.cell.subsection), []).append(i)
    for idx in groups.values():
        idx.sort(key=lambda i: users[i].user_id)
    return groups


def cluster_precoders_ref(users, cfg):
    """(sector, cluster) -> (M, n) precoder, column k the unit steering
    vector of the group's k-th member by user id."""
    steer = composite_steering(
        np.array([u.mu_phi for u in users], dtype=float),
        np.array([u.mu_h for u in users], dtype=float),
        cfg,
    )
    return {
        key: np.ascontiguousarray(steer[idx].T)
        for key, idx in group_members_ref(users).items()
    }


def interference_map_ref(users, plan, precoders):
    """The interference map built group by group and user by user:
    user_ids, time_share, own_gain and terms, the last as
    {target: [(interferer rows, gains), ...]} with one entry per
    interfering group, in InterferenceMap's evaluation order and (n, r + 1)
    target table."""
    groups = group_members_ref(users)
    keys = sorted(groups)
    start = {}
    order = []
    for key in keys:
        start[key] = len(order)
        order.extend(groups[key])
    width = plan.rb_per_user + 1
    own_gain = np.empty(len(order))
    terms = {}
    for key in keys:
        members = groups[key]
        proj = np.abs(
            np.array([users[i].channel for i in members]).conj() @ precoders[key]
        ) ** 2
        for a, i in enumerate(members):
            own_gain[start[key] + a] = proj[a, a]
            others = [b for b, j in enumerate(members) if users[j].cell != users[i].cell]
            if others:
                terms[(start[key] + a) * width] = [
                    ([start[key] + b for b in others], proj[a, others])
                ]
    if plan.reuse:
        block_groups = {}
        for key in groups:
            for b in plan.cluster_blocks[key[1]]:
                block_groups.setdefault((key[0], b), []).append(key)
        for key in keys:
            for pos, b in enumerate(plan.cluster_blocks[key[1]]):
                for a, i in enumerate(groups[key]):
                    h_conj = users[i].channel.conj()
                    for o in block_groups[(key[0], b)]:
                        if o == key:
                            continue
                        terms.setdefault((start[key] + a) * width + 1 + pos, []).append((
                            list(range(start[o], start[o] + len(groups[o]))),
                            np.abs(h_conj @ precoders[o]) ** 2,
                        ))
    return SimpleNamespace(
        user_ids=tuple(users[i].user_id for i in order),
        time_share=np.array([users[i].time_share for i in order], dtype=float),
        own_gain=own_gain,
        terms=terms,
    )


def user_arrays(users):
    """The users' ids, sectors, sections, subsections, mu coordinates and
    channels as arrays, in the order given."""
    column = lambda f: np.array([f(u) for u in users], dtype=np.int64)
    return SimpleNamespace(
        user_id=column(lambda u: u.user_id),
        sector=column(lambda u: u.cell.sector),
        section=column(lambda u: u.cell.section),
        subsection=column(lambda u: u.cell.subsection),
        mu_phi=np.array([u.mu_phi for u in users], dtype=float),
        mu_h=np.array([u.mu_h for u in users], dtype=float),
        channels=(
            np.array([u.channel for u in users]) if users else np.zeros((0, 0), complex)
        ),
    )


def trial_users(state):
    """A prepared trial's users as per-user records, in user-id order."""
    served = state.served
    return [
        ServedUser(uid, GridCell(*cell), mu_phi, mu_h, channel, share)
        for uid, *cell, mu_phi, mu_h, channel, share in zip(
            served.user_id.tolist(), served.sector.tolist(), served.section.tolist(),
            served.subsection.tolist(), served.angles.mu_phi.tolist(),
            served.angles.mu_h.tolist(), state.channels, state.time_share.tolist(),
        )
    ]


def array_trial(users, nbr, r, cfg):
    """The array pipeline on per-user records: (arrays, clustering, plan,
    interference map), arrays in user-id order as prepare_trial holds
    them."""
    u = user_arrays(sorted(users, key=lambda v: v.user_id))
    groups = cluster_users(u.user_id, u.sector, u.section, u.subsection)
    plan = assign_resource_blocks(groups.cluster_ids, nbr, r)
    steering_rows = composite_steering(u.mu_phi, u.mu_h, cfg)
    precoders = build_cluster_precoders(steering_rows, groups.order)
    im = build_interference_map(
        groups, u.sector, u.section, u.subsection, u.channels, plan, precoders
    )
    return u, groups, plan, im
