(** The unified payoff oracle: one memoized, backend-pluggable evaluation
    path for every payoff the game layer needs.

    Every analysis in this library ultimately asks the same two questions —
    "what does each node earn under this CW profile?" and "what are τ and p
    at this uniform window?" — and before this module each game module
    answered them with its own private helper calling
    {!Dcf.Model.homogeneous} or {!Dcf.Solver.solve_homogeneous} directly,
    hard-wiring the analytic backend.  An {!t} bundles the parameter set,
    the evaluation backend (closed-form/fixed-point analytic model, or
    packet-level measurement on either simulator) and a profile-keyed memo
    table, so the backend is chosen once per experiment and redundant
    fixed-point solves (repeated games and NE searches revisit the same
    profiles across stages and probes) become cache hits.

    {2 Memoization}

    Two tables, both protected by a mutex (oracles are shared across the
    experiment runner's domains):

    - a [(n, w)] fast path for uniform profiles, backed by the scalar
      Brent solve (analytic) or an n-node simulation;
    - a canonical-profile table for heterogeneous profiles, keyed by the
      {e sorted} multiset of per-node windows.  Sorting is sound because
      payoffs are permutation-invariant in the profile — nodes are
      distinguished only by their window (the qcheck suite probes this
      property on the raw solver) — and the canonical entry answers every
      permutation of the same multiset.  The analytic backend evaluates
      profiles through {!Dcf.Model.solve_strategies} (class-reduced, so
      equal strategies get bit-identical payoffs); the simulated backends average
      replicate runs and then average {e within} each window class, making
      permutation invariance exact by construction there too.

    Memo hits return the stored floats unchanged, so a hit is bit-identical
    to the cold solve that populated it.

    {2 Persistence}

    An oracle may be backed by a {!Store.t}: on a memo miss the store is
    consulted before solving, and cold solves are written through, so
    equilibrium grids survive across processes and runs.  Store keys embed
    the full evaluation identity (parameter fingerprint, backend with its
    sim configuration, p_hn), and values round-trip bit-faithfully, so a
    store hit is bit-identical to the solve that produced it — across
    process boundaries.

    Keys use schema {b v2} ([oracle|v2|…]): profile rows address the full
    (CW, AIFS, TXOP, rate) strategy multiset, with degenerate (CW-only)
    strategies keeping the historical bare-window rendering.  A store
    containing any legacy [oracle|v1|…] row is refused at {!create} with
    {!Store.Corrupt}: v1 rows keyed bare windows and cannot distinguish a
    CW from the strategies projecting onto it, so reinterpreting them
    would silently alias distinct strategies.

    With [warm_start], analytic solves on a store/memo miss are seeded from
    the nearest already-solved (n, w) neighbour (loaded from the store at
    open and accumulated since), cutting iteration counts.  Warm-started
    answers agree with cold solves at {e tolerance} level, not bit level,
    so [warm_start] defaults to off; the conformance suite anchors the gap.

    {2 Telemetry}

    Counters on the oracle's registry (these replace the repeated-game
    engine's bespoke [repeated.payoff_cache.hits]/[misses]):

    - ["oracle.cache.hits"] / ["oracle.cache.misses"] — memo table
      outcomes, one per query;
    - ["oracle.cache.solves"] — backend invocations: one per analytic
      solve, one per simulation replicate (so with [replicates > 1],
      solves exceeds misses);
    - ["oracle.store.hits"] / ["oracle.store.misses"] — persistent-store
      outcomes, counted only on memo misses of a store-backed oracle;
    - ["oracle.warmstart.used"] — solves that started from a neighbour's τ;
    - ["oracle.solve.iterations.warm"] / [".cold"] — iteration-count
      histograms of warm-started vs cold analytic solves (the warm-start
      saving, measured). *)

type sim_config = {
  duration : float;   (** simulated seconds per replicate *)
  replicates : int;   (** independent runs averaged per evaluation, ≥ 1 *)
  seed : int;         (** master seed; per-replicate streams are derived *)
}
(** Configuration of a simulated backend.  Each evaluation derives one RNG
    stream per replicate with {!Prelude.Rng.of_key} from [(seed, content
    key # replicate)], where the content key encodes the profile being
    measured — so results are independent of evaluation order and memo
    state, and two oracles with equal configs agree exactly. *)

type backend =
  | Analytic
      (** The Bianchi fixed-point model: scalar Brent solve for uniform
          profiles, class-reduced Picard iteration for heterogeneous ones.
          Exact and fast; the default. *)
  | Sim_slotted of sim_config
      (** Packet-level measurement on {!Netsim.Slotted} (virtual-slot
          accurate, single-hop). *)
  | Sim_spatial of sim_config
      (** Packet-level measurement on {!Netsim.Spatial} over a clique
          topology (σ-quantised; τ/p estimates are coarse, payoffs exact
          counters).  Prefer n ≥ 2: a single isolated node never
          transmits. *)

type uniform_view = {
  tau : float;        (** per-node transmission probability (estimate) *)
  p : float;          (** conditional collision probability (estimate) *)
  utility : float;    (** per-node payoff rate u *)
  throughput : float; (** network throughput S *)
  slot_time : float;  (** mean virtual slot length T̄slot, s *)
}
(** Everything the game layer consumes about a uniform profile (w, …, w). *)

type tier =
  | Memo   (** answered from the in-process memo, bit-identical *)
  | Store  (** answered from the persistent store, bit-identical *)
  | Cold   (** solved by the backend (and written through) *)
(** Where an answer came from — the serving layer's per-request
    accounting.  [Memo] and [Store] answers are bit-identical to the cold
    solve that originally produced them. *)

val tier_name : tier -> string
(** ["memo"], ["store"] or ["cold"] — the wire vocabulary of the serving
    layer's replies and counters. *)

exception Non_converged of string
(** Raised (instead of returning a fabricated answer) when the analytic
    fixed point fails to converge within its iteration budget.  Raising
    happens {e before} any memo insert or store write, so non-converged
    solves can never be memoized, persisted, or served; each refusal bumps
    the ["oracle.solve.nonconverged"] counter.  The serving layer maps
    this to an error reply. *)

type t

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?p_hn:float -> ?backend:backend ->
  ?store:Store.t -> ?warm_start:bool -> ?solver_max_iter:int ->
  Dcf.Params.t -> t
(** [create params] builds an oracle with an empty memo.  [backend]
    defaults to [Analytic].  [p_hn] is the hidden-node degradation factor
    applied to analytic utilities (default 1); the simulated backends
    ignore it — their losses come from the packet process itself.
    [telemetry] (default: the global registry) receives the cache counters
    and any solver/simulator events.

    [store], when given, backs the memo with persistent rows: memo misses
    consult the store, cold solves write through, and the store's
    degenerate uniform rows (for this oracle's exact evaluation identity)
    seed the warm-start neighbour table at open.
    @raise Store.Corrupt if the store holds any legacy [oracle|v1|…] row
    (regenerate or delete it — the v2 strategy-keyed schema cannot address
    v1 rows).  [warm_start] (default [false]) additionally
    seeds analytic solves from the nearest solved neighbour — trading the
    bit-stability of cold solves for fewer iterations; leave it off
    wherever bit-identity with {!Dcf.Model} is asserted.

    [solver_max_iter] (≥ 1) bounds the analytic class solver's iteration
    budget (the Brent uniform path is unaffected).  Solves that exhaust
    it raise {!Non_converged} instead of answering — the oracle never
    memoizes, persists, or serves a non-converged fixed point. *)

val analytic : ?telemetry:Telemetry.Registry.t -> ?p_hn:float -> Dcf.Params.t -> t
(** [analytic params] = [create ~backend:Analytic params]. *)

val params : t -> Dcf.Params.t

val backend : t -> backend

val telemetry : t -> Telemetry.Registry.t

val store : t -> Store.t option

val warm_start : t -> bool

val identity : t -> string
(** The oracle's full evaluation identity (parameter fingerprint, p_hn,
    backend with sim configuration) — the prefix of every store key it
    reads or writes.  Layers that persist derived results (the serving
    layer's NE rows) key them under the same prefix so rows never leak
    across configurations. *)

val backend_name : backend -> string
(** ["analytic"], ["slotted"] or ["spatial"] — the CLI's [--backend]
    vocabulary. *)

val uniform : t -> n:int -> w:int -> uniform_view
(** The memoized uniform-profile evaluation ((n, w) fast path) — the
    CW-only shorthand for {!uniform_strategy} on the degenerate
    strategy. *)

val uniform_outcome : t -> n:int -> w:int -> uniform_view * tier
(** Like {!uniform}, also reporting which tier answered — the serving
    layer's entry point. *)

val uniform_strategy : t -> n:int -> Dcf.Strategy_space.t -> uniform_view
(** The memoized uniform evaluation of [n] players all on the given
    multi-knob strategy.  Degenerate strategies take the exact CW-only
    solve path, so [uniform_strategy t ~n (Strategy_space.of_cw w)] is
    bit-identical to [uniform t ~n ~w]. *)

val uniform_strategy_outcome :
  t -> n:int -> Dcf.Strategy_space.t -> uniform_view * tier
(** Like {!uniform_strategy}, also reporting which tier answered. *)

val payoff_uniform : t -> n:int -> w:int -> float
(** Per-node payoff rate u of the uniform profile (w, …, w) — what the
    game modules' deleted private [payoff] helpers computed. *)

val welfare_uniform : t -> n:int -> w:int -> float
(** n·u(w, …, w): the global payoff rate. *)

val tau_p : t -> n:int -> w:int -> float * float
(** The (τ, p) pair of the uniform profile — what the deleted private
    [tau_of] helpers computed. *)

val payoffs_profile : t -> Profile.t -> float array
(** Per-node payoff rates of an arbitrary strategy profile, in profile
    order.  Uniform profiles take the [(n, strategy)] fast path;
    heterogeneous ones go through the canonical sorted-multiset memo.
    Nodes with equal strategies receive bit-identical payoffs, and
    degenerate profiles are bit-identical to the CW-only {!payoffs}
    shorthand. *)

(** {2 Batch evaluation}

    Sweep columns and the serve daemon's batch envelopes evaluate many
    neighbouring profiles in sequence; a batch context lets each cold
    solve start from the previous point's class τs (the multi-knob end of
    the warm-start throughline), which typically cuts a cold Newton solve
    to a handful of accepted steps.  Contexts are single-threaded by
    design — create one per sweep column, not one per oracle.  Like
    [warm_start], batch-warm answers agree with cold solves at tolerance
    level, not bit level; the memoized/persisted entry is whichever solve
    ran first. *)

type batch
(** Mutable warm-start context accumulating (strategy, τ) pairs across
    the profiles solved through it. *)

val batch : t -> batch
(** A fresh, empty context for this oracle.  Passing it to another
    oracle's evaluations is refused with [Invalid_argument]. *)

val payoffs_profile_outcome :
  ?batch:batch -> t -> Profile.t -> float array * tier
(** Like {!payoffs_profile}, also reporting which tier answered.  [batch]
    threads a sweep context (see {!batch}) whose accumulated class τs
    warm-start this evaluation's cold solve — memo and store tiers are
    unaffected. *)

val payoffs_batch_outcome :
  t -> Profile.t array -> (float array * tier, string) result array
(** Evaluate a sweep column in order under one fresh batch context.
    Each element is [Ok (payoffs, tier)] or [Error reason] when that
    profile's solve raised {!Non_converged} — one diverging point does
    not poison the rest of the column. *)

val payoffs_batch : t -> Profile.t array -> float array array
(** Like {!payoffs_batch_outcome} but returning the payoffs only.
    @raise Non_converged on the first non-converged profile. *)

val payoffs : t -> int array -> float array
(** CW-only shorthand: [payoffs t cws] =
    [payoffs_profile t (Profile.of_cws cws)].  The entry point for every
    caller that speaks bare windows (TFT dynamics, best response,
    deviation scans). *)

val payoffs_outcome : t -> int array -> float array * tier
(** Like {!payoffs}, also reporting which tier answered. *)
