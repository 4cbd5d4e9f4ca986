type config = {
  params : Dcf.Params.t;
  adjacency : int list array;
  cws : int array;
  duration : float;
  seed : int;
}

type node_stats = {
  attempts : int;
  successes : int;
  drops : int;
  local_collisions : int;
  hidden_failures : int;
  payoff_rate : float;
  throughput : float;
  p_hn_hat : float;
}

type airtime = {
  busy_fraction : float;
  idle_fraction : float;
  success_fraction : float;
  collision_fraction : float;
  overlap_fraction : float;
}

type result = {
  time : float;
  per_node : node_stats array;
  welfare_rate : float;
  delivered : int;
  delivered_late : int;
  airtime : airtime;
}

type tx = {
  src : int;
  mutable dest : int;
  mutable vuln_end : int;    (** end of the vulnerable window, in slots *)
  mutable resolved : bool;
  mutable finish : int;      (** src airtime ends (set at resolution) *)
  mutable corrupted_local : bool;
  mutable corrupted_hidden : bool;
}

type node = {
  id : int;
  window : int;
  cs_neighbors : int array;
      (** carrier-sense range, the decode (transmission) range first *)
  decode : int;               (** decode neighbours at the front *)
  rng : Prelude.Rng.t;
  can_tx : bool;              (** has at least one neighbour to address *)
  tx : tx;                    (** reusable record (event core only) *)
  mutable stage : int;
  mutable counter : int;
  mutable retries : int;
  mutable busy_until : int;   (** own transmission occupies the air *)
  mutable nav_until : int;
  mutable defer : int;        (** AIFS slots left before backoff resumes
                                  (reference loop only) *)
  mutable sensing : bool;     (** idle-sensing during the interval that just
                                  ended (reference loop only) *)
  mutable attempts : int;
  mutable successes : int;    (** frames delivered (txop per winning access) *)
  mutable success_accesses : int;  (** winning accesses (conservation) *)
  mutable drops : int;
  mutable local_collisions : int;
  mutable hidden_failures : int;
  (* Event-core scheduling state.  A node is either UNFROZEN (idle-sensing,
     [expiry] is the absolute slot its backoff ends, a Fire event is in the
     calendar) or FROZEN ([counter] holds the remaining backoff slots,
     [expiry] = -1).  [audible] counts carrier-sense neighbours currently
     on the air, so idle-sensing is an O(1) test. *)
  mutable frozen : bool;
  mutable on_air : bool;
  mutable audible : int;
  mutable expiry : int;
  (* Absolute slot the AIFS defer ends after the last unfreeze (event core
     only).  Backoff slots are only the ones past it: a freeze at [t]
     leaves [expiry − max t defer_end] backoff slots, and the defer
     re-arms in full at the next unfreeze. *)
  mutable defer_end : int;
  mutable in_bag : bool;
}

let slots_of sigma t = Stdlib.max 1 (int_of_float (Float.round (t /. sigma)))

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_stats (a : node_stats) (b : node_stats) =
  a.attempts = b.attempts && a.successes = b.successes && a.drops = b.drops
  && a.local_collisions = b.local_collisions
  && a.hidden_failures = b.hidden_failures
  && feq a.payoff_rate b.payoff_rate
  && feq a.throughput b.throughput
  && feq a.p_hn_hat b.p_hn_hat

let equal_result (a : result) (b : result) =
  feq a.time b.time
  && a.delivered = b.delivered
  && a.delivered_late = b.delivered_late
  && feq a.welfare_rate b.welfare_rate
  && feq a.airtime.busy_fraction b.airtime.busy_fraction
  && feq a.airtime.idle_fraction b.airtime.idle_fraction
  && feq a.airtime.success_fraction b.airtime.success_fraction
  && feq a.airtime.collision_fraction b.airtime.collision_fraction
  && feq a.airtime.overlap_fraction b.airtime.overlap_fraction
  && Array.length a.per_node = Array.length b.per_node
  && Array.for_all2 equal_stats a.per_node b.per_node

(* Event kinds, packed with the node id into a calendar key
   [kind * n + id]: within a slot, keys sort by kind, then node id —
   exactly the intra-slot processing order the reference loop implies
   (resolutions, then channel releases, then backoff expiries). *)
let kind_resolve = 0
let kind_busy_release = 1
let kind_nav_release = 2
let kind_fire = 3

(* Flight-recorder names, interned once (intern takes a lock).  The
   default tier records per-transmission outcomes (a = slot, b = node);
   the dense per-calendar-event tier sits behind [Recorder.detail]. *)
let recorder = Telemetry.Recorder.default
let nid_tx_start = Telemetry.Recorder.intern recorder "spatial.tx_start"
let nid_success = Telemetry.Recorder.intern recorder "spatial.success"
let nid_collision = Telemetry.Recorder.intern recorder "spatial.collision"
let nid_drop = Telemetry.Recorder.intern recorder "spatial.drop"

let nid_event =
  [|
    Telemetry.Recorder.intern recorder "spatial.ev.resolve";
    Telemetry.Recorder.intern recorder "spatial.ev.busy_release";
    Telemetry.Recorder.intern recorder "spatial.ev.nav_release";
    Telemetry.Recorder.intern recorder "spatial.ev.fire";
  |]

type driver = Reference | Event_core

(* Where neighbourhoods come from.  [Lists] is the historical adjacency
   interface (dense membership sets, full symmetry validation); [Geo] is
   the unit-disk model resolved through a {!Mobility.Grid} index, whose
   neighbour arrays are identical to [Topology.adjacency ~range] of the
   same positions — which is what makes {!run_grid} bit-match {!run}. *)
type neighborhoods =
  | Lists of {
      adjacency : int list array;
      cs_adjacency : int list array option;
    }
  | Geo of {
      positions : Mobility.Geom.point array;
      range : float;
      cs_range : float;
      grid : Mobility.Grid.t option;
    }

(* Grid-backed state threaded into the event core when neighbourhoods are
   geometric: the airborne-transmitter index, its query radius, and a
   flush that folds both grids' candidate/rebucket tallies into the
   registry counters once per run (the grids count into plain ints so the
   hot loop never takes the registry lock). *)
type geo_state = {
  g_air : Mobility.Grid.t;
  g_radius : float;
  g_flush : Telemetry.Registry.t -> unit;
}

(* [flight] gates the flight recorder for this run: the differential
   shadow run passes [false] so primary and shadow do not double-record
   the same workload into the process-wide rings. *)
let simulate ~driver ~telemetry ~retry_limit ~trace ~flight ~strategies
    ~rng_of ~hoods ~(params : Dcf.Params.t) ~cws ~duration ~seed =
  if retry_limit < 0 then invalid_arg "Spatial.run: retry_limit must be >= 0";
  let validate_scalars n =
    if n = 0 then invalid_arg "Spatial.run: empty network";
    if Array.length cws <> n then
      invalid_arg "Spatial.run: cws length mismatch";
    if duration <= 0. then invalid_arg "Spatial.run: duration must be positive";
    Array.iter
      (fun w -> if w < 1 then invalid_arg "Spatial.run: window must be >= 1")
      cws
  in
  let n, cs_neighbors_a, decode_a, is_neighbor, in_cs, geo =
    match hoods with
    | Lists { adjacency; cs_adjacency } ->
        let n = Array.length adjacency in
        let cs_adjacency = Option.value cs_adjacency ~default:adjacency in
        if Array.length cs_adjacency <> n then
          invalid_arg "Spatial.run: cs_adjacency length mismatch";
        validate_scalars n;
        Array.iteri
          (fun i l ->
            List.iter
              (fun j ->
                if j < 0 || j >= n || j = i then
                  invalid_arg "Spatial.run: bad neighbour";
                if not (List.mem i adjacency.(j)) then
                  invalid_arg "Spatial.run: adjacency not symmetric")
              l)
          adjacency;
        Array.iteri
          (fun i l ->
            List.iter
              (fun j ->
                if j < 0 || j >= n || j = i then
                  invalid_arg "Spatial.run: bad carrier-sense neighbour";
                if not (List.mem i cs_adjacency.(j)) then
                  invalid_arg "Spatial.run: cs_adjacency not symmetric")
              l;
            List.iter
              (fun j ->
                if not (List.mem j l) then
                  invalid_arg "Spatial.run: cs_adjacency must contain adjacency")
              adjacency.(i))
          cs_adjacency;
        let dense l =
          let set = Array.make n false in
          List.iter (fun j -> set.(j) <- true) l;
          set
        in
        let neighbor_sets = Array.map dense adjacency in
        let cs_sets = Array.map dense cs_adjacency in
        (* Decode neighbours first, in the caller's order (the order the
           destination draw indexes), then the carrier-sense-only ones. *)
        let hood i =
          let cs_only =
            List.filter (fun j -> not neighbor_sets.(i).(j)) cs_adjacency.(i)
          in
          Array.of_list (adjacency.(i) @ cs_only)
        in
        ( n,
          Array.init n hood,
          Array.map List.length adjacency,
          (fun i j -> neighbor_sets.(i).(j)),
          (fun i j -> cs_sets.(i).(j)),
          None )
    | Geo { positions; range; cs_range; grid } ->
        let n = Array.length positions in
        validate_scalars n;
        if range <= 0. then
          invalid_arg "Spatial.run_grid: range must be positive";
        if cs_range < range then
          invalid_arg "Spatial.run_grid: cs_range must be >= range";
        let g =
          match grid with
          | None -> Mobility.Grid.create ~cell:range positions
          | Some g ->
              if Mobility.Grid.length g <> n then
                invalid_arg "Spatial.run_grid: grid length mismatch";
              Array.iteri
                (fun i (p : Mobility.Geom.point) ->
                  let q = Mobility.Grid.position g i in
                  if q.x <> p.x || q.y <> p.y then
                    invalid_arg
                      "Spatial.run_grid: grid coordinates disagree with \
                       positions")
                positions;
              g
        in
        let candidates0 = Mobility.Grid.candidates g in
        let rebuckets0 = Mobility.Grid.rebuckets g in
        let cs_neighbors, decode =
          Mobility.Grid.neighbourhoods g ~range ~cs_range
        in
        (* Airborne-transmitter index: every pair the eager corruption
           marking can couple (src→receiver→other src) spans at most two
           decode hops, so a 2·range candidate box is a superset of the
           frames that can matter; extra candidates no-op through the
           exact predicates below. *)
        let air =
          Mobility.Grid.create ~fill:false ~cell:(2. *. range) positions
        in
        let flush registry =
          Telemetry.Metric.add
            (Telemetry.Registry.counter registry "netsim.grid.candidates")
            (Mobility.Grid.candidates g - candidates0
            + Mobility.Grid.candidates air);
          Telemetry.Metric.add
            (Telemetry.Registry.counter registry "netsim.grid.rebuckets")
            (Mobility.Grid.rebuckets g - rebuckets0
            + Mobility.Grid.rebuckets air)
        in
        ( n,
          cs_neighbors,
          decode,
          (fun i j ->
            i <> j
            && Mobility.Geom.within ~range positions.(i) positions.(j)),
          (fun i j ->
            i <> j
            && Mobility.Geom.within ~range:cs_range positions.(i)
                 positions.(j)),
          Some
            {
              g_air = air;
              g_radius = 2. *. range;
              g_flush = flush;
            } )
  in
  let strategies =
    match strategies with
    | None -> Array.map Dcf.Strategy_space.of_cw cws
    | Some ss ->
        if Array.length ss <> n then
          invalid_arg "Spatial.run: strategies length mismatch";
        Array.iteri
          (fun i (s : Dcf.Strategy_space.t) ->
            (match Dcf.Strategy_space.validate s with
            | Ok () -> ()
            | Error e -> invalid_arg ("Spatial.run: " ^ e));
            if s.cw <> cws.(i) then
              invalid_arg "Spatial.run: strategies disagree with cws")
          ss;
        ss
  in
  let m = params.max_backoff_stage in
  let timing = Dcf.Timing.of_params params in
  let sigma = params.sigma in
  (* Per-node frame timings: with degenerate strategies the passthrough in
     {!Dcf.Strategy_space.times} yields the base timings, so every slot
     count below equals the pre-strategy scalar — the degenerate subspace
     runs the exact CW-only slot sequence. *)
  let times_a =
    Array.map (fun s -> Dcf.Strategy_space.times params ~base:timing s)
      strategies
  in
  let ts_slots_a =
    Array.map (fun (tm : Dcf.Strategy_space.times) -> slots_of sigma tm.ts)
      times_a
  in
  let tc_slots_a =
    Array.map (fun (tm : Dcf.Strategy_space.times) -> slots_of sigma tm.tc)
      times_a
  in
  let vuln_slots_a =
    match params.mode with
    | Dcf.Params.Basic ->
        Array.map
          (fun (tm : Dcf.Strategy_space.times) ->
            slots_of sigma (timing.header +. tm.payload))
          times_a
    | Dcf.Params.Rts_cts ->
        let v =
          slots_of sigma
            (float_of_int (params.rts_bits + params.phy_header_bits)
            /. params.bit_rate)
        in
        Array.make n v
  in
  let aifs_a =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.aifs) strategies
  in
  let has_aifs = Array.exists (fun a -> a > 0) aifs_a in
  let txop_a =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.txop_frames) strategies
  in
  let slots = Float.ceil (duration /. sigma) in
  if not (slots < 0x1p61) then
    invalid_arg "Spatial.run: duration too long for the slot clock";
  let horizon = int_of_float slots in
  let master = Prelude.Rng.create seed in
  let nodes =
    Array.init n (fun i ->
        let node =
          {
            id = i;
            window = cws.(i);
            cs_neighbors = cs_neighbors_a.(i);
            decode = decode_a.(i);
            rng =
              (match rng_of with
              | None -> Prelude.Rng.split master
              | Some f -> f i);
            can_tx = decode_a.(i) > 0;
            tx =
              {
                src = i;
                dest = i;
                vuln_end = 0;
                resolved = true;
                finish = 0;
                corrupted_local = false;
                corrupted_hidden = false;
              };
            stage = 0;
            counter = 0;
            retries = 0;
            busy_until = 0;
            nav_until = 0;
            defer = aifs_a.(i);
            sensing = true;
            attempts = 0;
            successes = 0;
            success_accesses = 0;
            drops = 0;
            local_collisions = 0;
            hidden_failures = 0;
            frozen = false;
            on_air = false;
            audible = 0;
            expiry = -1;
            defer_end = 0;
            in_bag = false;
          }
        in
        node.counter <- Prelude.Rng.int node.rng node.window;
        node)
  in
  let delivered = ref 0 in
  let delivered_late = ref 0 in
  (* Airtime accounting, all in slots and all clipped at the horizon.
     [success]/[collision] aggregate per-transmission airtime (they can
     exceed the horizon under spatial reuse); [busy] is the union of
     transmission intervals, tracked incrementally — in-horizon events
     arrive in time order, so extending a coverage watermark is exact. *)
  let success_tx_slots = ref 0 in
  let collision_tx_slots = ref 0 in
  let busy_slots = ref 0 in
  let covered_until = ref 0 in
  let clip t = if t > horizon then horizon else t in
  let cover a b =
    let from = Stdlib.max a !covered_until in
    if b > from then begin
      busy_slots := !busy_slots + (b - from);
      covered_until := b
    end
  in
  let backoff_reset node =
    node.counter <- Prelude.Rng.int node.rng (node.window lsl node.stage)
  in
  (* Trace records are built only when a trace is attached: the guard
     keeps the untraced hot loop free of their allocation. *)
  let tracing = Option.is_some trace in
  let emit event =
    match trace with None -> () | Some t -> Trace.record t event
  in
  (* One flag read per run, not per event: the recorder can only be
     toggled between runs, and a single captured bool keeps the hot loop
     at one predictable branch per site. *)
  let rec_on = flight && Telemetry.Recorder.enabled recorder in
  let rec_detail = flight && Telemetry.Recorder.detail recorder in
  (* Driver-specific behaviour, injected so that the physics below is
     shared verbatim between the reference loop and the event core — the
     two schedulers can then only disagree on *when* they call into it,
     which is exactly what the differential mode checks. *)
  let raise_busy : (int -> node -> int -> unit) ref =
    ref (fun _ _ _ -> ())
  in
  let raise_nav : (int -> node -> int -> unit) ref = ref (fun _ _ _ -> ()) in
  let obtain : (node -> int -> int -> tx) ref =
    ref (fun nd _ _ -> nd.tx)
  in
  let register : (node -> tx -> unit) ref = ref (fun _ _ -> ()) in
  (* [mark_airborne node tx now] runs [mark] against every airborne frame
     that can interact with [node]'s new frame [tx]. *)
  let mark_airborne : (node -> tx -> int -> unit) ref =
    ref (fun _ _ _ -> ())
  in
  (* Eager corruption marking of [node]'s new frame [tx] against one other
     airborne frame. *)
  let mark node tx now other =
    if other != tx && nodes.(other.src).busy_until > now then begin
      (* [other]'s frame is still on the air. *)
      if other.src <> node.id && is_neighbor tx.dest other.src then begin
        if in_cs node.id other.src then tx.corrupted_local <- true
        else tx.corrupted_hidden <- true
      end;
      (* Symmetrically, the new frame may corrupt [other] if other is
         still in its vulnerable window and we are audible at its
         receiver — or if we ARE its receiver and just went deaf by
         transmitting ourselves (same-slot start, so other's dest-busy
         check could not see it). *)
      if (not other.resolved) && now < other.vuln_end then begin
        if other.dest = node.id then other.corrupted_local <- true
        else if is_neighbor other.dest node.id then
          if in_cs other.src node.id then other.corrupted_local <- true
          else other.corrupted_hidden <- true
      end
    end
  in
  (* The CTS (and the data exchange) silences [centre]'s decode
     neighbourhood until [finish]: every member but the source raises its
     NAV. *)
  let silence now src finish centre =
    for k = 0 to centre.decode - 1 do
      let j = centre.cs_neighbors.(k) in
      if j <> src then begin
        let nd = nodes.(j) in
        if finish > nd.nav_until then begin
          !raise_nav now nd finish;
          if tracing then
            emit
              (Trace.Nav_defer
                 {
                   time = float_of_int now *. sigma;
                   node = j;
                   until = float_of_int finish *. sigma;
                 })
        end
      end
    done
  in
  let resolve now tx =
    tx.resolved <- true;
    let src = nodes.(tx.src) in
    let started = now - vuln_slots_a.(tx.src) in
    let corrupted = tx.corrupted_local || tx.corrupted_hidden in
    if corrupted then begin
      let finish = started + tc_slots_a.(tx.src) in
      !raise_busy now src finish;
      tx.finish <- finish;
      collision_tx_slots :=
        !collision_tx_slots + (clip finish - clip started);
      cover (clip now) (clip finish);
      if tx.corrupted_local then
        src.local_collisions <- src.local_collisions + 1
      else src.hidden_failures <- src.hidden_failures + 1;
      if rec_on then
        Telemetry.Recorder.instant recorder nid_collision now tx.src;
      if tracing then
        emit
          (Trace.Collision
             { time = float_of_int now *. sigma; nodes = [ tx.src ] });
      src.retries <- src.retries + 1;
      if src.retries > retry_limit then begin
        src.drops <- src.drops + 1;
        src.retries <- 0;
        src.stage <- 0;
        if rec_on then Telemetry.Recorder.instant recorder nid_drop now tx.src;
        if tracing then
          emit (Trace.Drop { time = float_of_int now *. sigma; node = tx.src })
      end
      else src.stage <- Int.min (src.stage + 1) m
    end
    else begin
      let finish = started + ts_slots_a.(tx.src) in
      !raise_busy now src finish;
      tx.finish <- finish;
      src.successes <- src.successes + txop_a.(tx.src);
      src.success_accesses <- src.success_accesses + 1;
      if now < horizon then delivered := !delivered + txop_a.(tx.src)
      else delivered_late := !delivered_late + txop_a.(tx.src);
      success_tx_slots := !success_tx_slots + (clip finish - clip started);
      cover (clip now) (clip finish);
      if rec_on then Telemetry.Recorder.instant recorder nid_success now tx.src;
      if tracing then
        emit
          (Trace.Success { time = float_of_int now *. sigma; node = tx.src });
      src.stage <- 0;
      src.retries <- 0;
      match params.mode with
      | Dcf.Params.Basic -> ()
      | Dcf.Params.Rts_cts ->
          if tracing then
            emit
              (Trace.Cts
                 {
                   time = float_of_int now *. sigma;
                   src = tx.dest;
                   dest = tx.src;
                 });
          let dest = nodes.(tx.dest) in
          !raise_busy now dest finish;
          silence now tx.src finish dest;
          silence now tx.src finish src
    end;
    backoff_reset src
  in
  let start_transmission now node =
    if not node.can_tx then
      (* Isolated node: nothing to send to; stay silent. *)
      backoff_reset node
    else begin
      (* The draw {!Prelude.Rng.pick} would make on the decode prefix. *)
      let dest =
        node.cs_neighbors.(Prelude.Rng.int node.rng node.decode)
      in
      node.attempts <- node.attempts + 1;
      if rec_on then
        Telemetry.Recorder.instant recorder nid_tx_start now node.id;
      !raise_busy now node
        (now + vuln_slots_a.(node.id)) (* extended at resolution *);
      cover now (clip (now + vuln_slots_a.(node.id)));
      (match params.mode with
      | Dcf.Params.Basic -> ()
      | Dcf.Params.Rts_cts ->
          if tracing then
            emit
              (Trace.Rts
                 { time = float_of_int now *. sigma; src = node.id; dest }));
      let tx = !obtain node dest now in
      if nodes.(dest).busy_until > now then
        (* Receiver itself is transmitting and will miss the frame; it is a
           neighbour, so this counts as a local loss. *)
        tx.corrupted_local <- true;
      !mark_airborne node tx now;
      !register node tx
    end
  in
  (match driver with
  | Reference ->
      (* The pre-event-core boundary-scan loop, kept as the differential
         baseline: at every channel-state boundary resolve, launch, and
         tick by scanning nodes and the active list. *)
      let active : tx list ref = ref [] in
      (raise_busy :=
         fun _now nd v -> if v > nd.busy_until then nd.busy_until <- v);
      (raise_nav := fun _now nd v -> nd.nav_until <- v);
      (obtain :=
         fun node dest now ->
           {
             src = node.id;
             dest;
             vuln_end = now + vuln_slots_a.(node.id);
             resolved = false;
             finish = now + vuln_slots_a.(node.id);
             corrupted_local = false;
             corrupted_hidden = false;
           });
      (register := fun _node tx -> active := tx :: !active);
      (mark_airborne :=
         fun node tx now -> List.iter (mark node tx now) !active);
      (* A node senses the channel idle when it is not transmitting, has no
         NAV, and no neighbour is transmitting. *)
      let senses_idle now node =
        node.busy_until <= now
        && node.nav_until <= now
        && not
             (Array.exists
                (fun j -> nodes.(j).busy_until > now)
                node.cs_neighbors)
      in
      let now = ref 0 in
      while !now < horizon do
        (* 1. Resolve frames whose vulnerable window closes now; drop frames
           whose airtime has ended. *)
        List.iter
          (fun tx ->
            if (not tx.resolved) && tx.vuln_end <= !now then resolve !now tx)
          !active;
        active := List.filter (fun tx -> tx.finish > !now) !active;
        (* 2a. Pre-launch sensing transitions: a node whose channel just
           went idle re-arms its AIFS defer in full.  The scan costs a
           full senses_idle pass per boundary, so it only runs when some
           node actually defers; on the degenerate subspace (every defer
           0) the starter filter below keeps the cheap short-circuit
           shape of the CW-only loop.
           2b. Launch every node whose defer and counter have reached
           zero, against a single snapshot of the channel state: nodes
           that fire in the same slot cannot sense each other's start, so
           all of them transmit (the synchronised-collision case). *)
        let starters =
          if has_aifs then begin
            Array.iter
              (fun nd ->
                let idle = senses_idle !now nd in
                if idle && not nd.sensing then nd.defer <- aifs_a.(nd.id);
                nd.sensing <- idle)
              nodes;
            Array.to_list nodes
            |> List.filter (fun nd ->
                   nd.defer = 0 && nd.counter <= 0 && nd.sensing)
          end
          else
            Array.to_list nodes
            |> List.filter (fun nd -> nd.counter <= 0 && senses_idle !now nd)
        in
        List.iter (start_transmission !now) starters;
        (* 3. Between boundaries only the currently idle-sensing nodes
           tick (defer slots first, then backoff). *)
        Array.iter (fun nd -> nd.sensing <- senses_idle !now nd) nodes;
        let counting =
          Array.to_list nodes |> List.filter (fun nd -> nd.sensing)
        in
        (* 4. Jump to the next channel-state boundary. *)
        let next = ref max_int in
        let consider t = if t > !now && t < !next then next := t in
        List.iter
          (fun tx -> if not tx.resolved then consider tx.vuln_end)
          !active;
        Array.iter
          (fun nd ->
            consider nd.busy_until;
            consider nd.nav_until)
          nodes;
        List.iter
          (fun nd -> consider (!now + nd.defer + nd.counter))
          counting;
        let next =
          if !next = max_int then horizon else Stdlib.min !next horizon
        in
        let dt = next - !now in
        List.iter
          (fun nd ->
            let d = Stdlib.min nd.defer dt in
            nd.defer <- nd.defer - d;
            nd.counter <- nd.counter - (dt - d))
          counting;
        now := next
      done;
      (* Frames still in their vulnerable window at the horizon complete
         just after the measurement ends; resolve them so the per-node
         accounting (attempts = successes + collisions) balances.  Their
         airtime past the horizon is clipped away by [clip]. *)
      List.iter
        (fun tx -> if not tx.resolved then resolve tx.vuln_end tx)
        !active
  | Event_core ->
      (* Event core: a slot-ring calendar replaces the per-boundary
         node/active scans.  Each event is keyed
         [kind * n + id] within its slot, and {!Calendar.take} hands a
         slot's keys back sorted, so the intra-slot order (resolve, busy
         release, NAV release, fire; node id within each kind) reproduces
         the reference loop's phases bit-for-bit.  The ring must outreach
         every push: a backoff fire lands at most AIFS + (cw lsl m) slots
         ahead, a resolution or release at most one frame (vulnerable
         window, Ts or Tc) ahead, and nothing lands past the horizon. *)
      let reach = ref 1 in
      let backoff_span cw =
        let rec widen w k =
          if k = 0 || w >= horizon then Int.min w horizon
          else widen (2 * w) (k - 1)
        in
        widen cw m
      in
      for i = 0 to n - 1 do
        let a = aifs_a.(i) in
        let fire =
          if a >= horizon then horizon
          else Int.min horizon (a + backoff_span cws.(i))
        in
        let frame =
          Int.max vuln_slots_a.(i) (Int.max ts_slots_a.(i) tc_slots_a.(i))
        in
        reach := Int.max !reach (Int.max fire (Int.min horizon frame))
      done;
      let cal = Calendar.create ~reach:!reach ~capacity:(2 * n) in
      let push_event t kind id =
        if t < horizon then Calendar.push cal t ((kind * n) + id)
      in
      (* Airborne transmissions, one slot per node (a node carries at most
         one outstanding frame); stale entries are pruned lazily while
         marking. *)
      let bag = Array.make n 0 in
      let bag_len = ref 0 in
      let starters = Array.make n 0 in
      let n_starters = ref 0 in
      let freeze t nd =
        if not nd.frozen then begin
          nd.frozen <- true;
          if nd.expiry >= 0 then begin
            (* Only slots past the defer end are consumed backoff; a
               freeze inside the defer keeps the backoff whole (the defer
               re-arms in full at the next unfreeze). *)
            nd.counter <- nd.expiry - Int.max t nd.defer_end;
            nd.expiry <- -1
          end
        end
      in
      let try_unfreeze t nd =
        if
          nd.can_tx && nd.frozen && nd.busy_until <= t && nd.nav_until <= t
          && nd.audible = 0
        then begin
          nd.frozen <- false;
          let a = aifs_a.(nd.id) in
          if a = 0 && nd.counter <= 0 then begin
            nd.expiry <- -1;
            starters.(!n_starters) <- nd.id;
            incr n_starters
          end
          else begin
            nd.defer_end <- t + a;
            nd.expiry <- nd.defer_end + Int.max nd.counter 0;
            push_event nd.expiry kind_fire nd.id
          end
        end
      in
      (raise_busy :=
         fun t nd v ->
           if v > nd.busy_until then begin
             nd.busy_until <- v;
             if not nd.on_air then begin
               nd.on_air <- true;
               let cs = nd.cs_neighbors in
               for k = 0 to Array.length cs - 1 do
                 let p = nodes.(cs.(k)) in
                 p.audible <- p.audible + 1;
                 freeze t p
               done
             end;
             freeze t nd;
             push_event v kind_busy_release nd.id
           end);
      (raise_nav :=
         fun t nd v ->
           nd.nav_until <- v;
           freeze t nd;
           push_event v kind_nav_release nd.id);
      (obtain :=
         fun node dest now ->
           let tx = node.tx in
           tx.dest <- dest;
           tx.vuln_end <- now + vuln_slots_a.(node.id);
           tx.resolved <- false;
           tx.finish <- now + vuln_slots_a.(node.id);
           tx.corrupted_local <- false;
           tx.corrupted_hidden <- false;
           tx);
      (match geo with
      | None ->
          (register :=
             fun node tx ->
               if not node.in_bag then begin
                 node.in_bag <- true;
                 bag.(!bag_len) <- node.id;
                 incr bag_len
               end;
               push_event tx.vuln_end kind_resolve node.id);
          mark_airborne :=
            fun node tx now ->
              let k = ref 0 in
              while !k < !bag_len do
                let id = bag.(!k) in
                let other = nodes.(id).tx in
                if other.resolved && other.finish <= now then begin
                  nodes.(id).in_bag <- false;
                  decr bag_len;
                  bag.(!k) <- bag.(!bag_len)
                end
                else begin
                  mark node tx now other;
                  incr k
                end
              done
      | Some { g_air = air; g_radius; _ } ->
          (* The global bag becomes the airborne grid: registration inserts
             the transmitter's cell, marking queries only the cells within
             the interference radius, and stale members are pruned lazily
             as queries meet them.  Candidates are staged through [scratch]
             (by one callback shared across attempts) because pruning
             mutates the bucket being iterated. *)
          let scratch = Array.make n 0 in
          let staged = ref 0 in
          let stage j =
            scratch.(!staged) <- j;
            incr staged
          in
          (register :=
             fun node tx ->
               Mobility.Grid.add air node.id;
               push_event tx.vuln_end kind_resolve node.id);
          mark_airborne :=
            fun node tx now ->
              staged := 0;
              Mobility.Grid.iter_candidates air ~radius:g_radius node.id stage;
              for k = 0 to !staged - 1 do
                let id = scratch.(k) in
                let other = nodes.(id).tx in
                if other.resolved && other.finish <= now then
                  Mobility.Grid.remove air id
                else mark node tx now other
              done);
      (* Seed the calendar: every node that can transmit starts unfrozen
         with its initial AIFS defer and backoff pending. *)
      Array.iter
        (fun nd ->
          if nd.can_tx then begin
            nd.defer_end <- aifs_a.(nd.id);
            nd.expiry <- nd.defer_end + nd.counter;
            push_event nd.expiry kind_fire nd.id
          end
          else nd.frozen <- true)
        nodes;
      while not (Calendar.is_empty cal) do
        let t = Calendar.take cal in
        n_starters := 0;
        (* Process the slot's events in key order: resolutions, then busy
           releases, then NAV releases, then fires, each in ascending node
           id.  Events they push land in later slots. *)
        for k = 0 to Calendar.due_count cal - 1 do
          let e = Calendar.due cal k in
          let id = e mod n in
          let kind = e / n in
          if rec_detail then
            Telemetry.Recorder.instant recorder nid_event.(kind) t id;
          let nd = nodes.(id) in
          if kind = kind_resolve then begin
            let tx = nd.tx in
            if (not tx.resolved) && tx.vuln_end = t then resolve t tx
          end
          else if kind = kind_busy_release then begin
            if nd.on_air && nd.busy_until = t then begin
              nd.on_air <- false;
              let cs = nd.cs_neighbors in
              for k = 0 to Array.length cs - 1 do
                let p = nodes.(cs.(k)) in
                p.audible <- p.audible - 1;
                try_unfreeze t p
              done;
              try_unfreeze t nd
            end
          end
          else if kind = kind_nav_release then begin
            if nd.nav_until = t then try_unfreeze t nd
          end
          else if (not nd.frozen) && nd.expiry = t then begin
            (* Fire: the backoff expired while still idle-sensing. *)
            nd.expiry <- -1;
            starters.(!n_starters) <- id;
            incr n_starters
          end
        done;
        (* Launch this slot's starters in node-id order against the
           post-resolution channel snapshot — same-slot starters cannot
           sense each other, so each starts regardless of what the ones
           before it just did. *)
        Prelude.Util.sort_prefix starters !n_starters;
        for k = 0 to !n_starters - 1 do
          let nd = nodes.(starters.(k)) in
          nd.frozen <- true;
          nd.expiry <- -1;
          start_transmission t nd
        done
      done;
      (* Frames still unresolved carry a vulnerable window past the horizon
         (in-horizon resolutions all had calendar entries); resolve them so
         per-node accounting balances.  [clip] discards their airtime.
         Resolution order cannot affect the result here: each resolve
         only touches its own node's counters and rng stream plus global
         sums, and every airtime contribution clips to the horizon — so
         scanning the bag (lists) and scanning all nodes (geo) agree. *)
      match geo with
      | None ->
          for k = 0 to !bag_len - 1 do
            let tx = nodes.(bag.(k)).tx in
            if not tx.resolved then resolve tx.vuln_end tx
          done
      | Some _ ->
          Array.iter
            (fun nd ->
              if not nd.tx.resolved then resolve nd.tx.vuln_end nd.tx)
            nodes);
  let elapsed = float_of_int horizon *. sigma in
  let per_node =
    Array.map
      (fun nd ->
        let clean = nd.attempts - nd.local_collisions in
        (* Frames transmitted: one per failed access (only the first frame
           of a burst collides), txop per winning access.  Equals
           [attempts] on the degenerate subspace. *)
        let frames =
          nd.attempts - nd.success_accesses
          + (nd.success_accesses * txop_a.(nd.id))
        in
        {
          attempts = nd.attempts;
          successes = nd.successes;
          drops = nd.drops;
          local_collisions = nd.local_collisions;
          hidden_failures = nd.hidden_failures;
          payoff_rate =
            ((float_of_int nd.successes *. params.gain)
            -. (float_of_int frames *. params.cost))
            /. elapsed;
          throughput =
            float_of_int nd.successes *. times_a.(nd.id).payload /. elapsed;
          p_hn_hat =
            (if clean <= 0 then 1.
             else
               float_of_int (clean - nd.hidden_failures) /. float_of_int clean);
        })
      nodes
  in
  let horizon_f = float_of_int horizon in
  let busy_fraction = float_of_int !busy_slots /. horizon_f in
  let airtime =
    {
      busy_fraction;
      idle_fraction = 1. -. busy_fraction;
      success_fraction = float_of_int !success_tx_slots /. horizon_f;
      collision_fraction = float_of_int !collision_tx_slots /. horizon_f;
      overlap_fraction =
        float_of_int (!success_tx_slots + !collision_tx_slots - !busy_slots)
        /. horizon_f;
    }
  in
  (* Always-on conservation checker: these identities hold by construction,
     so a violation means the scheduler or the accounting is broken — fail
     the run rather than publish bad numbers. *)
  let fail fmt = Printf.ksprintf failwith fmt in
  Array.iteri
    (fun i nd ->
      if
        nd.attempts
        <> nd.success_accesses + nd.local_collisions + nd.hidden_failures
      then
        fail
          "Spatial.run: conservation violated at node %d: %d attempts <> %d \
           winning accesses + %d local + %d hidden"
          i nd.attempts nd.success_accesses nd.local_collisions
          nd.hidden_failures;
      if nd.successes <> nd.success_accesses * txop_a.(i) then
        fail
          "Spatial.run: conservation violated at node %d: %d frames <> %d \
           accesses x txop %d"
          i nd.successes nd.success_accesses txop_a.(i))
    nodes;
  let total_successes =
    Array.fold_left (fun acc (s : node_stats) -> acc + s.successes) 0 per_node
  in
  if !delivered + !delivered_late <> total_successes then
    fail
      "Spatial.run: conservation violated: delivered %d + late %d <> %d \
       successes"
      !delivered !delivered_late total_successes;
  if !busy_slots > horizon then
    fail "Spatial.run: conservation violated: busy %d slots > horizon %d"
      !busy_slots horizon;
  if !success_tx_slots + !collision_tx_slots < !busy_slots then
    fail
      "Spatial.run: conservation violated: success %d + collision %d < busy \
       %d slots"
      !success_tx_slots !collision_tx_slots !busy_slots;
  let balance =
    airtime.idle_fraction +. airtime.success_fraction
    +. airtime.collision_fraction -. airtime.overlap_fraction
  in
  if Float.abs (balance -. 1.) > 1e-9 then
    fail "Spatial.run: conservation violated: airtime balance %.12f <> 1"
      balance;
  let result =
    {
      time = elapsed;
      per_node;
      welfare_rate =
        Array.fold_left (fun acc s -> acc +. s.payoff_rate) 0. per_node;
      delivered = !delivered;
      delivered_late = !delivered_late;
      airtime;
    }
  in
  Option.iter (fun gs -> gs.g_flush telemetry) geo;
  Telemetry.Metric.incr
    (Telemetry.Registry.counter telemetry "netsim.spatial.runs");
  Telemetry.Registry.emit telemetry "run_summary" (fun () ->
      let share (s : node_stats) =
        if total_successes = 0 then 0.
        else float_of_int s.successes /. float_of_int total_successes
      in
      [
        ("sim", Telemetry.Jsonx.String "spatial");
        ("n", Telemetry.Jsonx.Int n);
        ("seed", Telemetry.Jsonx.Int seed);
        ("time", Telemetry.Jsonx.Float elapsed);
        ("delivered", Telemetry.Jsonx.Int !delivered);
        ("delivered_late", Telemetry.Jsonx.Int !delivered_late);
        ("busy_fraction", Telemetry.Jsonx.Float airtime.busy_fraction);
        ("idle_fraction", Telemetry.Jsonx.Float airtime.idle_fraction);
        ("success_fraction", Telemetry.Jsonx.Float airtime.success_fraction);
        ( "collision_fraction",
          Telemetry.Jsonx.Float airtime.collision_fraction );
        ("overlap_fraction", Telemetry.Jsonx.Float airtime.overlap_fraction);
        ("welfare_rate", Telemetry.Jsonx.Float result.welfare_rate);
        ( "hidden_failures",
          Telemetry.Jsonx.Int
            (Array.fold_left
               (fun acc (s : node_stats) -> acc + s.hidden_failures)
               0 per_node) );
        ( "jain_fairness",
          Telemetry.Jsonx.Float
            (Prelude.Stats.jain_fairness
               (Array.map (fun s -> s.throughput) per_node)) );
        ( "success_share",
          Telemetry.Jsonx.List
            (Array.to_list
               (Array.map (fun s -> Telemetry.Jsonx.Float (share s)) per_node))
        );
      ]);
  result

let nid_run = Telemetry.Recorder.intern recorder "spatial.run"

(* A recorder-only span around one run (a = n, b = seed): cheap enough
   to leave on every entry point, and it parents the per-transmission
   instants so traces group by simulation. *)
let recorded_run a b f =
  let rid = Telemetry.Recorder.begin_span recorder nid_run a b in
  if rid = 0 then f ()
  else
    Fun.protect
      ~finally:(fun () -> Telemetry.Recorder.end_span recorder nid_run rid)
      f

let diff_requested () =
  match Sys.getenv_opt "NETSIM_SPATIAL_DIFF" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let run_reference ?(telemetry = Telemetry.Registry.default) ?cs_adjacency
    ?(retry_limit = max_int) ?trace ?strategies
    { params; adjacency; cws; duration; seed } =
  let hoods = Lists { adjacency; cs_adjacency } in
  recorded_run (Array.length adjacency) seed (fun () ->
      simulate ~driver:Reference ~telemetry ~retry_limit ~trace ~flight:true
        ~strategies ~rng_of:None ~hoods ~params ~cws ~duration ~seed)

let run ?(telemetry = Telemetry.Registry.default) ?cs_adjacency
    ?(retry_limit = max_int) ?trace ?strategies
    { params; adjacency; cws; duration; seed } =
  let hoods = Lists { adjacency; cs_adjacency } in
  let result =
    recorded_run (Array.length adjacency) seed (fun () ->
        simulate ~driver:Event_core ~telemetry ~retry_limit ~trace
          ~flight:true ~strategies ~rng_of:None ~hoods ~params ~cws ~duration
          ~seed)
  in
  if diff_requested () then begin
    let shadow =
      simulate ~driver:Reference
        ~telemetry:(Telemetry.Registry.create ())
        ~retry_limit ~trace:None ~flight:false ~strategies ~rng_of:None
        ~hoods ~params ~cws ~duration ~seed
    in
    if not (equal_result result shadow) then
      failwith
        "Spatial.run: NETSIM_SPATIAL_DIFF divergence: event core and \
         reference loop disagree"
  end;
  result

let run_grid ?(telemetry = Telemetry.Registry.default) ?(retry_limit = max_int)
    ?trace ?strategies ?rng_of ?grid ?cs_range ~params ~positions ~range ~cws
    ~duration ~seed () =
  let cs_range = Option.value cs_range ~default:range in
  let hoods = Geo { positions; range; cs_range; grid } in
  let result =
    recorded_run (Array.length positions) seed (fun () ->
        simulate ~driver:Event_core ~telemetry ~retry_limit ~trace
          ~flight:true ~strategies ~rng_of ~hoods ~params ~cws ~duration ~seed)
  in
  if diff_requested () then begin
    let shadow =
      simulate ~driver:Reference
        ~telemetry:(Telemetry.Registry.create ())
        ~retry_limit ~trace:None ~flight:false ~strategies ~rng_of ~hoods
        ~params ~cws ~duration ~seed
    in
    if not (equal_result result shadow) then
      failwith
        "Spatial.run_grid: NETSIM_SPATIAL_DIFF divergence: event core and \
         reference loop disagree"
  end;
  result

(* Single-hop adapter for the payoff oracle: a clique adjacency makes every
   node hear and address every other, so the spatial machinery degenerates
   to the saturated single-hop world — modulo σ-quantisation of frame
   times.  The loop has no virtual-slot notion, so τ̂ is attempts per
   σ-slot and the slot estimate is σ itself: coarser than Slotted's, while
   payoff and throughput come from exact counters. *)
let clique_estimates ?telemetry ?strategies ~params ~cws ~duration ~seed () =
  let n = Array.length cws in
  let everyone = List.init n Fun.id in
  let adjacency =
    Array.init n (fun i -> List.filter (fun j -> j <> i) everyone)
  in
  let result =
    run ?telemetry ?strategies { params; adjacency; cws; duration; seed }
  in
  let sigma = params.Dcf.Params.sigma in
  let slots = result.time /. sigma in
  Array.map
    (fun (s : node_stats) ->
      {
        Estimate.tau_hat = float_of_int s.attempts /. slots;
        p_hat =
          (* Failed accesses over accesses; on the degenerate subspace
             this equals the historical (attempts − successes)/attempts
             (successes then counts accesses). *)
          (if s.attempts = 0 then 0.
           else
             float_of_int (s.local_collisions + s.hidden_failures)
             /. float_of_int s.attempts);
        payoff_rate = s.payoff_rate;
        throughput = s.throughput;
        slot_time = sigma;
      })
    result.per_node
