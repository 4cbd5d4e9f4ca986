(** Spatial (multi-hop) simulator of saturated IEEE 802.11 DCF.

    Unlike {!module:Slotted}, nodes only carrier-sense their neighbourhood:
    a transmission is corrupted when another frame overlaps its vulnerable
    window at the *receiver*, which a hidden terminal (in range of the
    receiver but not of the sender) can cause without the sender ever
    sensing it — the mechanism behind the paper's degradation factor p_hn
    (Sec. VI.A).

    The model is slot-quantised: time advances in σ-slots and frame
    durations are rounded to whole slots.  Scheduling is event-driven: a
    slot-ring calendar ({!Calendar}) orders backoff expiries,
    vulnerable-window closes and busy/NAV releases by (slot, kind, node
    id), so scheduling an event costs O(1) and draining a slot costs a
    sort of that slot's few keys, instead of a scan over all nodes and
    airborne frames.  The ring holds W slot heads, W the power of two
    above the farthest any event can land ahead (max over nodes of
    AIFS + (cw lsl m) and the frame slot counts, capped at the horizon),
    so a run stores O(n + W) words for its calendar.

    Allocation: once its buffers have grown, the event phase allocates
    only the RNG's boxed 64-bit state — 3 words per draw, two draws per
    attempt.  Measured on a 1 s, 10⁴-node {!run_grid} run (basic access,
    cw 128, mean degree 12): 6.0 minor words per attempt, pinned at ≤ 8 by
    a test.  Attaching a [trace] adds its event records.

    {!run_reference} keeps the original boundary-scanning loop; both
    produce bit-identical results under the determinism contract
    (per-node RNG streams, starters launched in node-id order within a
    slot).

    Access modes follow the parameter set:
    - basic: the whole data frame is vulnerable; a failed attempt occupies
      the sender for Tc.
    - RTS/CTS: only the RTS frame is vulnerable; on success the CTS sets a
      NAV over both endpoints' neighbourhoods for the rest of the exchange,
      on failure the sender is busy Tc = RTS + DIFS.

    Saturated traffic: each attempt addresses a uniformly random neighbour.
    Nodes without neighbours never transmit. *)

type config = {
  params : Dcf.Params.t;
  adjacency : int list array;  (** symmetric neighbour lists *)
  cws : int array;             (** per-node window, same length *)
  duration : float;            (** simulated seconds *)
  seed : int;
}

type node_stats = {
  attempts : int;
  successes : int;
      (** frames delivered ([txop_frames] per winning access; equals the
          winning accesses on the degenerate subspace) *)
  drops : int;
      (** packets discarded after the retry limit (0 with the default
          unlimited retries) *)
  local_collisions : int;
      (** failures with at least one overlapping transmitter the sender
          could itself sense — ordinary contention losses *)
  hidden_failures : int;
      (** failures caused exclusively by transmitters outside the sender's
          carrier-sense range — the 1 − p_hn losses *)
  payoff_rate : float;
      (** (delivered frames·g − transmitted frames·e)/time; transmitted
          frames = attempts on the degenerate subspace *)
  throughput : float;   (** payload airtime fraction delivered *)
  p_hn_hat : float;
      (** estimated degradation factor: among attempts that survived local
          contention, the fraction that survived hidden terminals too
          (1 when no such attempt failed) *)
}

type airtime = {
  busy_fraction : float;
      (** fraction of the horizon during which at least one node was
          transmitting (union of transmission intervals, clipped at the
          horizon) *)
  idle_fraction : float;       (** [1 − busy_fraction] *)
  success_fraction : float;
      (** aggregate successful transmit airtime over the horizon, clipped
          at the horizon; can exceed 1 under spatial reuse (concurrent
          non-interfering transmissions each count their full duration) *)
  collision_fraction : float;  (** aggregate corrupted transmit airtime,
                                   clipped at the horizon *)
  overlap_fraction : float;
      (** spatial-reuse excess: aggregate transmit airtime beyond the busy
          union, i.e. [success + collision − busy].  The conservation
          identity [idle + success + collision − overlap = 1] holds to
          1e-9 on every run (checked, see {!run}). *)
}

type result = {
  time : float;
  per_node : node_stats array;
  welfare_rate : float;
  delivered : int;
      (** packets delivered strictly before the horizon — the only ones
          airtime accounting covers *)
  delivered_late : int;
      (** packets whose vulnerable window straddled the horizon and that
          resolved successfully just after measurement ended; counted for
          per-node bookkeeping ([successes] includes them) but excluded
          from [delivered] and clipped out of airtime *)
  airtime : airtime;
}

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?cs_adjacency:int list array -> ?retry_limit:int -> ?trace:Trace.t ->
  ?strategies:Dcf.Strategy_space.t array ->
  config -> result
(** [strategies] gives each node its full (CW, AIFS, TXOP, rate) strategy;
    each entry's [cw] must agree with [cws].  AIFS adds defer slots a node
    waits after every busy→idle channel transition before its backoff
    resumes; TXOP delivers [txop_frames] frames per winning access (the
    burst holds the channel for the full burst Ts, collisions still cost
    one frame); rate rescales the payload airtime.  Omitting [strategies]
    — or passing only degenerate ones — runs the exact CW-only slot
    sequence, bit-identically, on both drivers.

    [cs_adjacency] is the carrier-sense graph: who a node can *hear* (and
    therefore defers to), as opposed to [config.adjacency], who it can
    *decode* (and therefore send to / be corrupted by).  Physically the
    carrier-sense range is at least the transmission range, so
    [cs_adjacency] must contain every [adjacency] edge; it defaults to
    [adjacency].  A larger carrier-sense graph shrinks the hidden-terminal
    population — the ablation the [hidden] bench sweeps.

    [retry_limit] is the number of retransmissions before the head-of-line
    packet is discarded (default: unlimited, the paper's chain).

    In RTS/CTS mode, a [trace] additionally records {!Trace.Rts} at every
    handshake start, {!Trace.Cts} when the exchange wins the channel, and
    {!Trace.Nav_defer} whenever the CTS extends a third node's NAV — so
    multi-hop tests can assert virtual-carrier-sense behaviour.  Every run
    emits a ["run_summary"] telemetry event on [telemetry] (default: the
    global registry) with airtime fractions, per-node success shares and
    Jain fairness.

    Every run passes an always-on conservation audit before returning:
    per-node [attempts = winning accesses + local_collisions +
    hidden_failures] (and [successes = winning accesses · txop_frames]),
    [delivered + delivered_late] equals total successes, the busy union
    never exceeds the horizon, and
    [idle + success + collision − overlap = 1 ± 1e-9].

    When the environment variable [NETSIM_SPATIAL_DIFF] is set (non-empty,
    not ["0"]), every call additionally runs the {!run_reference} loop on
    the same inputs and fails unless the two results are bit-identical —
    the differential harness for the event core.

    @raise Invalid_argument on inconsistent sizes, windows < 1,
    non-positive duration, an asymmetric adjacency, or a [cs_adjacency]
    missing an [adjacency] edge.
    @raise Failure on a conservation-audit or differential failure. *)

val run_reference :
  ?telemetry:Telemetry.Registry.t ->
  ?cs_adjacency:int list array -> ?retry_limit:int -> ?trace:Trace.t ->
  ?strategies:Dcf.Strategy_space.t array ->
  config -> result
(** The original boundary-scanning scheduler (every channel-state boundary
    rescans all nodes and airborne frames), sharing the physics and
    accounting code with {!run}.  Kept as the differential baseline: same
    inputs must give a result {!equal_result} to {!run}'s.  Prefer {!run}
    everywhere else — this loop allocates on every boundary. *)

val run_grid :
  ?telemetry:Telemetry.Registry.t ->
  ?retry_limit:int -> ?trace:Trace.t ->
  ?strategies:Dcf.Strategy_space.t array ->
  ?rng_of:(int -> Prelude.Rng.t) ->
  ?grid:Mobility.Grid.t -> ?cs_range:float ->
  params:Dcf.Params.t -> positions:Mobility.Geom.point array ->
  range:float -> cws:int array -> duration:float -> seed:int ->
  unit -> result
(** The grid-indexed geometric core: the same event-driven scheduler as
    {!run}, with neighbourhoods resolved against a {!Mobility.Grid}
    uniform-grid index over [positions] (unit-disk model, decode radius
    [range], carrier-sense radius [cs_range], default [range]) instead of
    explicit adjacency lists.  Airborne interference is likewise resolved
    against a per-run grid of active transmitters queried at radius
    2·[range] — the eager corruption marking couples nodes at most two
    decode hops apart, so the candidate box is a superset of every frame
    that can matter.

    Determinism contract: [run_grid ~positions ~range ~cs_range] is
    bit-identical ({!equal_result}) to [run] on
    [Topology.adjacency ~range positions] with
    [~cs_adjacency:(Topology.adjacency ~range:cs_range positions)] — the
    grid changes how neighbourhoods are {e found}, never what they are
    (neighbour arrays are equal, and per-node RNG streams make cross-node
    event order immaterial).  The fast-tier [scale] conformance group
    pins this.

    [rng_of] overrides each node's RNG stream (default: streams split
    from [seed] in node order, exactly as {!run}).  {!Sharded.run} uses
    it to give every node a stream keyed by its global id, so a node
    simulates identically in whichever shard mirrors it.  [grid] supplies
    a prebuilt node index (cell size may differ from [range]); its
    coordinates must agree with [positions] — the mobility path keeps one
    grid alive and {!Mobility.Grid.move}s walkers between epochs.

    Each run folds the index's tallies into the [netsim.grid.candidates]
    and [netsim.grid.rebuckets] counters on [telemetry].

    @raise Invalid_argument on inconsistent sizes, a non-positive [range],
    [cs_range < range], or a [grid] disagreeing with [positions]. *)

val equal_result : result -> result -> bool
(** Bit-exact equality (floats compared by their IEEE-754 bits), used by
    the differential harness. *)

val equal_stats : node_stats -> node_stats -> bool
(** Bit-exact equality of one node's statistics. *)

val clique_estimates :
  ?telemetry:Telemetry.Registry.t ->
  ?strategies:Dcf.Strategy_space.t array ->
  params:Dcf.Params.t -> cws:int array -> duration:float -> seed:int ->
  unit -> Estimate.t array
(** Run the spatial simulator on a fully connected (clique) topology and
    fold the result into per-node {!Estimate.t} records — the payoff
    oracle's [Sim_spatial] backend for single-hop games.  The spatial loop
    is σ-quantised and has no virtual-slot notion, so [tau_hat] is
    attempts per σ-slot and [slot_time] is σ — coarser estimates than
    {!Slotted.estimates} — while payoff and throughput are exact counters.
    A single isolated node never transmits, so prefer [n ≥ 2]. *)
