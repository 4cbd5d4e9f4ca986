(** Coupled fixed point of the heterogeneous network model.

    Combining eq. 2 (τ_i from p_i and W_i) with eq. 3
    (p_i = 1 − Π_{j≠i}(1 − τ_j)) gives 2n equations in 2n unknowns.  Nodes
    playing the same strategy share (τ, p) by symmetry, so the system is
    solved in class space: one unknown per distinct strategy.  The paper's
    CW-only game, its unilateral deviations (Lemma 4) and the multi-knob
    (CW, AIFS, TXOP, rate) game are all instances of the one class
    solver, {!solve_classes}; {!solve_profile} groups a per-node profile
    into its classes.  The class solver runs a damped-Newton iteration on
    the defect by default — the Jacobian of the class-space map is
    diagonal plus rank-one, so each Newton step costs O(c) via
    Sherman–Morrison — and falls back to the damped Picard sweep on any
    refused, singular, or non-contracting step.
    [1] proves uniqueness for homogeneous windows; for the heterogeneous
    profiles used in the experiments both iterations converge to the same
    point from any interior start (a property the test suite probes from
    randomised starting points, and the [solver_core] conformance group
    pins Newton against Picard at ≤1e-10 relative). *)

type solution = {
  taus : float array;  (** per-node transmission probability *)
  ps : float array;    (** per-node conditional collision probability *)
  iterations : int;
  converged : bool;
}

type algo =
  | Newton  (** damped Newton with O(c) rank-one steps, Picard fallback *)
  | Picard  (** the pre-Newton damped fixed-point iteration, kept as the
                reference path for conformance and benchmarks *)

type class_solution = {
  class_pairs : (float * float) list;
      (** per-class (τ, p) in input order; τ is the {e effective}
          transmission probability (AIFS-discounted) *)
  iterations : int;  (** map evaluations spent by the underlying solver *)
  converged : bool;  (** whether the final defect fell below [tol] *)
}

val solve_homogeneous :
  ?telemetry:Telemetry.Registry.t -> ?iterations:int ref -> ?guess:float ->
  ?tol:float -> Params.t -> n:int -> w:int -> float * float
(** [(τ, p)] for [n ≥ 1] nodes all using window [w]: the scalar fixed point
    τ = τ(1 − (1−τ)^{n−1}), solved by Brent's method on the defect.  Orders
    of magnitude faster than the class solve; used by the CW sweeps.
    [iterations], when given, receives Brent's iteration count (0 for the
    trivial n = 1 case) — the scalar path's analogue of
    [solution.iterations]; the same count is reported in a
    ["solver_convergence"] event.

    [guess] warm-starts the solve from a neighbouring problem's τ: when
    [[g/2, 2g]] still brackets the sign change, Brent runs on that
    interval instead of the full (0, 1], typically halving the iteration
    count.  The answer agrees with the cold solve at tolerance level,
    {e not} bit level — callers that promise bit-stability (the memoized
    oracle's default path) must not pass a guess. *)

val solve_classes :
  ?telemetry:Telemetry.Registry.t -> ?iterations:int ref ->
  ?tau_hint:(Strategy_space.t -> float option) ->
  ?tol:float -> ?algo:algo -> ?max_iter:int ->
  Params.t -> (Strategy_space.t * int) list -> class_solution
(** [solve_classes params [(s1, k1); …]] solves a network of Σk_c nodes in
    which [k_c] nodes play strategy [s_c], reducing the fixed point to one
    (τ, p) pair per class:

    p_c = 1 − Π_{c'} (1−τ_{c'})^{k_{c'}} / (1−τ_c).

    AIFS couples into the fixed point through an eligibility factor — a
    node deferring [a] extra slots after every busy period only reaches a
    transmission slot with probability (1 − p)^a in the mean-field model,
    so its effective per-slot transmission probability is
    τ' = (1 − p)^a · τ_bianchi(W, p), and it is τ' that enters every
    other node's collision probability.  At [aifs = 0] the map is eq. 2
    itself.  TXOP and rate leave the contention fixed point untouched
    (they are priced in channel occupancy and utility downstream).

    Returns per-class [(τ'_c, p_c)] in input order together with the
    iteration count and the {e real} convergence flag.  Strategies must
    pass {!Strategy_space.validate} and counts must be ≥ 1; classes may
    repeat a strategy.  [algo] defaults to [Newton] (rank-one Jacobian,
    φ' = (1−p)^a·dτB/dp − a·(1−p)^{a−1}·τB); pass [Picard] to force the
    reference iteration.  [tau_hint s] may seed class [s]'s starting
    iterate with a τ from a neighbouring solved problem (warm start);
    hints outside (0, 1) are ignored.  Both iterations converge to the
    same fixed point from any interior start, so hints trade
    bit-stability for iterations exactly like {!solve_homogeneous}'s
    [guess].  Defaults: [tol = 1e-14], [max_iter = 50_000]. *)

val solve_profile :
  ?telemetry:Telemetry.Registry.t -> ?iterations:int ref ->
  ?tau_hint:(Strategy_space.t -> float option) ->
  ?tol:float -> ?algo:algo -> ?max_iter:int ->
  Params.t -> Strategy_space.t array -> solution
(** [solve_profile params strategies] solves the network in which node i
    plays [strategies.(i)]: the profile is grouped into distinct-strategy
    classes in canonical {!Strategy_space.compare} order (ascending window
    on CW-only profiles, so any permutation solves the identical class
    problem), handed to {!solve_classes}, and the per-class pairs are
    expanded back to per-node arrays in input order.  This is the entry
    every profile solve in the stack goes through.  Nodes sharing a
    strategy get bit-identical (τ, p).  [converged] is threaded from the
    class solve. *)
