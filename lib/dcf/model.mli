(** High-level facade over the analytic model: one call from a CW profile to
    everything the game layer consumes.

    The game layer ({!module:Macgame}) manipulates CW profiles only through
    this module, so the whole Bianchi machinery stays an implementation
    detail of the [dcf] library. *)

type solved = {
  params : Params.t;
  cws : int array;
  taus : float array;
  ps : float array;
  metrics : Metrics.t;
  utilities : float array;  (** payoff rates u_i *)
  converged : bool;
      (** whether the underlying fixed point actually converged — callers
          that persist or serve answers must check this *)
}

val solve_profile :
  ?p_hn:float -> ?iterations:int ref -> ?max_iter:int -> Params.t ->
  int array -> solved
(** Solve the fixed point for a CW profile through
    {!Solver.solve_profile} and evaluate metrics and utilities.  The fixed
    point is class-reduced over distinct windows, so equal windows get
    bit-identical (τ, p, u) and the (τ, p) are invariant under profile
    permutation.  [p_hn] (default 1) is the multi-hop hidden-node
    degradation factor applied to every node; [iterations] and [max_iter]
    pass through to the solver. *)

type strategy_solved = {
  params : Params.t;
  strategies : Strategy_space.t array;
  taus : float array;
      (** effective per-slot transmission probabilities τ'_i *)
  ps : float array;
  slot_time : float;
  utilities : float array;  (** TXOP-aware payoff rates u_i *)
  goodputs : float array;
      (** per-node normalised goodput (burst payload credited to the
          access) *)
  converged : bool;  (** threaded from the underlying class solve *)
}

val solve_strategies :
  ?p_hn:float -> ?iterations:int ref ->
  ?tau_hint:(Strategy_space.t -> float option) -> ?max_iter:int ->
  Params.t -> Strategy_space.t array -> strategy_solved
(** Solve a full multi-knob strategy profile.  Contention goes through
    {!Solver.solve_profile} (AIFS eligibility coupling) for every
    profile.  When every strategy is degenerate (CW-only) the pricing is
    {!solve_profile}'s, so the degenerate subspace reproduces the CW-only
    answers bit-identically (taus/ps/utilities equal [solved]'s,
    [slot_time] = [metrics.slot_time], [goodputs] =
    [metrics.per_node_throughput]).  Otherwise channel occupancy comes
    from {!Hetero.of_profile} with per-strategy burst/rate durations, and
    payoffs from {!Utility.rate_of_strategy}.  [tau_hint] warm-starts the
    class solve and [max_iter] bounds the underlying iteration — both pass
    straight through to the solver. *)

type node_view = {
  tau : float;
  p : float;
  utility : float;     (** payoff rate u *)
  throughput : float;  (** node's share of S *)
  slot_time : float;   (** network T̄slot *)
}

val homogeneous : ?p_hn:float -> Params.t -> n:int -> w:int -> node_view
(** Per-node view of the symmetric network (all [n] nodes on window [w]),
    via the fast scalar solve. *)
