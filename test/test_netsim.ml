(* Tests for the packet-level simulators: the single-hop slotted simulator
   (validated against the analytic Bianchi model) and the spatial multi-hop
   simulator (carrier sense, hidden terminals, NAV). *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let default = Dcf.Params.default
let rts_cts = Dcf.Params.rts_cts

let slotted ?(params = default) ?(duration = 60.) ?(seed = 42) cws =
  Netsim.Slotted.run { params; cws; duration; seed }

(* {1 Slotted simulator} *)

let test_slotted_deterministic () =
  let a = slotted [| 32; 32; 32 |] and b = slotted [| 32; 32; 32 |] in
  Alcotest.(check int) "same slots" a.slots b.slots;
  Array.iteri
    (fun i (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "same attempts" s.attempts b.per_node.(i).attempts;
      Alcotest.(check int) "same successes" s.successes b.per_node.(i).successes)
    a.per_node

let test_slotted_seed_changes_outcome () =
  let a = slotted ~seed:1 [| 32; 32; 32 |] and b = slotted ~seed:2 [| 32; 32; 32 |] in
  Alcotest.(check bool) "different sample paths" true
    (a.per_node.(0).attempts <> b.per_node.(0).attempts
    || a.per_node.(0).successes <> b.per_node.(0).successes)

let test_slotted_accounting_invariants () =
  let r = slotted [| 16; 64; 256 |] in
  Array.iter
    (fun (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "attempts = successes + collisions" s.attempts
        (s.successes + s.collisions);
      Alcotest.(check bool) "tau_hat in [0,1]" true (s.tau_hat >= 0. && s.tau_hat <= 1.);
      Alcotest.(check bool) "p_hat in [0,1]" true (s.p_hat >= 0. && s.p_hat <= 1.))
    r.per_node;
  Alcotest.(check bool) "ran past the requested duration" true (r.time >= 60.);
  Alcotest.(check bool) "throughput below 1" true (r.total_throughput < 1.)

let test_slotted_single_node_never_collides () =
  let r = slotted [| 32 |] in
  Alcotest.(check int) "no collisions alone" 0 r.per_node.(0).collisions;
  (* Alone, every 16th slot on average carries a packet: utilisation is the
     payload share of (mean backoff · sigma + Ts). *)
  let timing = Dcf.Timing.of_params default in
  let expected =
    timing.payload /. ((15.5 *. default.sigma) +. timing.ts)
  in
  check_close ~eps:0.02 "utilisation" expected r.total_throughput

let test_slotted_matches_bianchi_tau_p () =
  (* Under the chain's own tick convention the simulator must agree tightly
     with eq. 2-3; under real freeze semantics the gap is the documented
     accuracy limit of Bianchi's approximation (still below ~10 %). *)
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous default ~n ~w in
      let r =
        Netsim.Slotted.run ~bianchi_ticks:true
          { params = default; cws = Array.make n w; duration = 120.; seed = 42 }
      in
      let taus = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.tau_hat) r.per_node in
      let ps = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.p_hat) r.per_node in
      let tau_hat = Prelude.Stats.mean_of taus and p_hat = Prelude.Stats.mean_of ps in
      if Float.abs (tau_hat -. v.tau) /. v.tau > 0.04 then
        Alcotest.failf "bianchi mode n=%d W=%d: tau %.5f vs %.5f" n w tau_hat v.tau;
      if Float.abs (p_hat -. v.p) > 0.02 then
        Alcotest.failf "bianchi mode n=%d W=%d: p %.4f vs %.4f" n w p_hat v.p;
      let real = slotted ~duration:120. (Array.make n w) in
      let tau_real =
        Prelude.Stats.mean_of
          (Array.map (fun (s : Netsim.Slotted.node_stats) -> s.tau_hat) real.per_node)
      in
      if Float.abs (tau_real -. v.tau) /. v.tau > 0.12 then
        Alcotest.failf "real mode n=%d W=%d: tau %.5f vs %.5f" n w tau_real v.tau)
    [ (2, 64); (5, 79); (10, 128); (20, 339) ]

let test_slotted_matches_analytic_payoff () =
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous default ~n ~w in
      let r = slotted ~duration:120. (Array.make n w) in
      let u_hat =
        Prelude.Stats.mean_of
          (Array.map (fun (s : Netsim.Slotted.node_stats) -> s.payoff_rate) r.per_node)
      in
      if Float.abs (u_hat -. v.utility) /. Float.abs v.utility > 0.08 then
        Alcotest.failf "n=%d W=%d: payoff %.4f vs %.4f" n w u_hat v.utility)
    [ (5, 79); (10, 200); (20, 339) ]

let test_slotted_lemma1_ordering_in_simulation () =
  (* Lemma 1 in the packet simulation: the node with the smaller window
     transmits more, faces a *lower* collision probability (it does not
     contend with itself) and earns more. *)
  let cws = [| 40; 80; 80; 80; 80 |] in
  let r = slotted ~duration:120. cws in
  Alcotest.(check bool) "deviant transmits more" true
    (r.per_node.(0).tau_hat > r.per_node.(1).tau_hat);
  Alcotest.(check bool) "deviant collides less" true
    (r.per_node.(0).p_hat < r.per_node.(1).p_hat);
  Alcotest.(check bool) "deviant earns more" true
    (r.per_node.(0).payoff_rate > r.per_node.(1).payoff_rate)

let test_slotted_rts_cts_mode () =
  (* RTS/CTS collisions are cheap, so at an aggressive window the RTS/CTS
     network sustains much higher welfare than basic access. *)
  let basic = slotted ~duration:60. (Array.make 10 32) in
  let rts = slotted ~params:rts_cts ~duration:60. (Array.make 10 32) in
  Alcotest.(check bool) "rts/cts wins under heavy contention" true
    (rts.welfare_rate > basic.welfare_rate)

let test_slotted_symmetric_fairness () =
  let r = slotted ~duration:120. (Array.make 8 64) in
  let shares = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.throughput) r.per_node in
  Alcotest.(check bool) "jain close to 1" true
    (Prelude.Stats.jain_fairness shares > 0.99)

let test_slotted_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Slotted.run: empty network")
    (fun () -> ignore (slotted [||]));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Slotted.run: duration must be positive") (fun () ->
      ignore (Netsim.Slotted.run { params = default; cws = [| 8 |]; duration = 0.; seed = 0 }));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Slotted.run: window must be >= 1") (fun () ->
      ignore (slotted [| 0 |]))

let test_payoff_oracle_positive_near_optimum () =
  let u =
    Netsim.Slotted.payoff_oracle ~params:default ~n:5 ~duration:30. ~seed:3 79
  in
  let v = (Dcf.Model.homogeneous default ~n:5 ~w:79).Dcf.Model.utility in
  Alcotest.(check bool) "within 15% of analytic" true
    (Float.abs (u -. v) /. v < 0.15)

(* {1 Spatial simulator} *)

let complete_graph n = Array.init n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))

let spatial ?(params = default) ?(duration = 30.) ?(seed = 9) ~adjacency cws =
  Netsim.Spatial.run { params; adjacency; cws; duration; seed }

let test_spatial_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Spatial.run: empty network")
    (fun () -> ignore (spatial ~adjacency:[||] [||]));
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Spatial.run: adjacency not symmetric") (fun () ->
      ignore (spatial ~adjacency:[| [ 1 ]; [] |] [| 8; 8 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Spatial.run: cws length mismatch") (fun () ->
      ignore (spatial ~adjacency:(complete_graph 3) [| 8 |]))

let test_spatial_deterministic () =
  let a = spatial ~adjacency:(complete_graph 4) (Array.make 4 32) in
  let b = spatial ~adjacency:(complete_graph 4) (Array.make 4 32) in
  Alcotest.(check int) "same deliveries" a.delivered b.delivered

let test_spatial_accounting () =
  let r = spatial ~adjacency:(complete_graph 5) (Array.make 5 64) in
  Array.iter
    (fun (s : Netsim.Spatial.node_stats) ->
      Alcotest.(check int) "attempts decompose" s.attempts
        (s.successes + s.local_collisions + s.hidden_failures);
      Alcotest.(check bool) "p_hn_hat in [0,1]" true
        (s.p_hn_hat >= 0. && s.p_hn_hat <= 1.))
    r.per_node;
  let total = Array.fold_left (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.successes) 0 r.per_node in
  Alcotest.(check int) "delivered + late = sum of successes"
    (r.delivered + r.delivered_late) total

let test_spatial_complete_graph_has_no_hidden_failures () =
  let r = spatial ~adjacency:(complete_graph 6) (Array.make 6 32) in
  Array.iter
    (fun (s : Netsim.Spatial.node_stats) ->
      Alcotest.(check int) "no hidden terminals in a clique" 0 s.hidden_failures;
      check_close "p_hn_hat = 1" 1. s.p_hn_hat)
    r.per_node

let test_spatial_complete_graph_matches_slotted () =
  (* On a clique the spatial simulator is the single-hop channel, so its
     welfare must be close to the slotted simulator's (duration-rounding
     differs slightly). *)
  let n = 5 and w = 79 in
  let sp = spatial ~duration:60. ~adjacency:(complete_graph n) (Array.make n w) in
  let sl = slotted ~duration:60. (Array.make n w) in
  let rel = Float.abs (sp.welfare_rate -. sl.welfare_rate) /. sl.welfare_rate in
  Alcotest.(check bool)
    (Printf.sprintf "welfare within 10%% (rel %.3f)" rel)
    true (rel < 0.10)

let test_spatial_isolated_node_stays_silent () =
  let adjacency = [| [ 1 ]; [ 0 ]; [] |] in
  let r = spatial ~adjacency [| 16; 16; 16 |] in
  Alcotest.(check int) "no attempts without neighbours" 0 r.per_node.(2).attempts;
  Alcotest.(check bool) "the pair still communicates" true (r.per_node.(0).successes > 0)

(* Classic hidden-terminal chain: 0 - 1 - 2 where 0 and 2 cannot hear each
   other and both send to 1. *)
let hidden_chain = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |]

let test_spatial_hidden_terminals_appear_in_basic () =
  let r = spatial ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |] in
  let outer = r.per_node.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "hidden failures observed (%d)" outer.hidden_failures)
    true
    (outer.hidden_failures > 0);
  Alcotest.(check bool) "degradation factor below 1" true (outer.p_hn_hat < 1.)

let test_spatial_rts_mitigates_hidden_terminals () =
  (* With RTS/CTS only the short RTS is vulnerable, so the hidden-terminal
     loss rate must drop sharply relative to basic access. *)
  let basic = spatial ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |] in
  let rts =
    spatial ~params:rts_cts ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |]
  in
  let loss (r : Netsim.Spatial.result) =
    let s = r.per_node.(0) in
    1. -. s.p_hn_hat
  in
  Alcotest.(check bool)
    (Printf.sprintf "basic loss %.3f > rts loss %.3f" (loss basic) (loss rts))
    true
    (loss basic > 2. *. loss rts)

let test_spatial_spatial_reuse () =
  (* Two far-apart pairs transmit concurrently: aggregate throughput beats a
     single pair's. *)
  let pairs = [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |] in
  let two = spatial ~duration:60. ~adjacency:pairs (Array.make 4 32) in
  let one = spatial ~duration:60. ~adjacency:[| [ 1 ]; [ 0 ] |] (Array.make 2 32) in
  Alcotest.(check bool) "parallel pairs deliver more" true
    (two.delivered > (3 * one.delivered) / 2)

let test_spatial_smaller_window_more_attempts () =
  let adjacency = complete_graph 4 in
  let r = spatial ~duration:60. ~adjacency [| 8; 64; 64; 64 |] in
  Alcotest.(check bool) "aggressive node attempts more" true
    (r.per_node.(0).attempts > r.per_node.(1).attempts)

let test_spatial_paper_scenario_runs () =
  (* Smoke-test the Sec. VII.B configuration at reduced duration: 100 nodes,
     RTS/CTS, random connected topology. *)
  let w =
    Mobility.Waypoint.create ~seed:7
      { width = 1000.; height = 1000.; speed_min = 0.; speed_max = 5. }
      ~n:100
  in
  let adjacency = Mobility.Topology.snapshot ~connect_attempts:100 w ~range:250. in
  let r =
    spatial ~params:rts_cts ~duration:5. ~adjacency (Array.make 100 26)
  in
  Alcotest.(check bool) "packets flow" true (r.delivered > 100);
  let p_hns = Array.map (fun (s : Netsim.Spatial.node_stats) -> s.p_hn_hat) r.per_node in
  Alcotest.(check bool) "some hidden-node degradation" true
    (Prelude.Stats.mean_of p_hns < 1.)

let test_spatial_rts_cts_trace () =
  let trace = Netsim.Trace.create () in
  let r =
    Netsim.Spatial.run
      {
        params = rts_cts;
        adjacency = hidden_chain;
        cws = [| 32; 32; 32 |];
        duration = 10.;
        seed = 9;
      }
      ~trace
  in
  let s = Netsim.Trace.summarize trace in
  Alcotest.(check bool) "handshakes happened" true (s.rts > 0);
  (* Every success won the channel through a CTS, and every CTS answer is
     followed by protected data, so the counts agree exactly. *)
  Alcotest.(check int) "one CTS per delivery" (r.delivered + r.delivered_late)
    s.cts;
  Alcotest.(check bool) "no more CTS than RTS" true (s.cts <= s.rts);
  (* In the hidden chain the edge nodes cannot hear each other: the centre's
     CTS is what silences them, so NAV deferrals must be observed. *)
  Alcotest.(check bool) "NAV deferrals observed" true (s.nav_defers > 0);
  List.iter
    (fun ev ->
      match ev with
      | Netsim.Trace.Nav_defer { time; until; _ } ->
          Alcotest.(check bool) "NAV extends into the future" true
            (until > time)
      | _ -> ())
    (Netsim.Trace.events trace)

let test_spatial_basic_mode_has_no_handshake_events () =
  let trace = Netsim.Trace.create () in
  ignore
    (Netsim.Spatial.run
       {
         params = default;
         adjacency = hidden_chain;
         cws = [| 32; 32; 32 |];
         duration = 5.;
         seed = 9;
       }
       ~trace);
  let s = Netsim.Trace.summarize trace in
  Alcotest.(check int) "no RTS in basic mode" 0 s.rts;
  Alcotest.(check int) "no CTS in basic mode" 0 s.cts;
  Alcotest.(check int) "no NAV in basic mode" 0 s.nav_defers

(* {1 Channel noise (PER)} *)

let test_slotted_per_occupies_ts () =
  let trace = Netsim.Trace.create () in
  let r =
    Netsim.Slotted.run ~per:0.4 ~trace
      { params = default; cws = [| 16 |]; duration = 20.; seed = 5 }
  in
  let s = Netsim.Trace.summarize trace in
  let node = r.per_node.(0) in
  (* A lone station never collides: every failed attempt is channel noise,
     and the trace must say so. *)
  Alcotest.(check int) "lone node never collides" 0 s.collisions;
  Alcotest.(check int) "every failure is a channel error"
    (node.attempts - node.successes)
    s.channel_errors;
  Alcotest.(check bool) "channel errors happen" true (s.channel_errors > 0);
  let a = r.airtime in
  check_close "four fractions sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  check_close "no collision airtime for one node" 0. a.collision_fraction;
  (* A corrupted frame goes out in full, so it costs Ts — the same airtime
     per attempt as a success.  The error share of busy time is then the
     error rate itself. *)
  let observed = a.error_fraction /. (a.error_fraction +. a.success_fraction) in
  Alcotest.(check bool)
    (Printf.sprintf "error share of Ts airtime near per (%.3f)" observed)
    true
    (Float.abs (observed -. 0.4) < 0.05)

let test_slotted_per_coexists_with_collisions () =
  let trace = Netsim.Trace.create () in
  let r =
    Netsim.Slotted.run ~per:0.2 ~trace
      { params = default; cws = [| 16; 16; 16 |]; duration = 20.; seed = 8 }
  in
  let s = Netsim.Trace.summarize trace in
  Alcotest.(check bool) "collisions still traced" true (s.collisions > 0);
  Alcotest.(check bool) "channel errors traced too" true (s.channel_errors > 0);
  let a = r.airtime in
  check_close "fractions still sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  Alcotest.(check bool) "both busy kinds accrue airtime" true
    (a.collision_fraction > 0. && a.error_fraction > 0.);
  Array.iter
    (fun (n : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "attempts decompose" n.attempts
        (n.successes + n.collisions))
    r.per_node

(* {1 Event core vs reference loop} *)

let quiet () = Telemetry.Registry.create ()

(* Decode pairs (0,1) and (2,3); carrier sense additionally couples 0 and 2,
   exercising the cs-only freeze path. *)
let cs_bridge =
  ( [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |],
    Some [| [ 1; 2 ]; [ 0 ]; [ 0; 3 ]; [ 2 ] |] )

let test_spatial_event_core_matches_reference () =
  let chain8 =
    Array.init 8 (fun i -> List.filter (fun j -> j >= 0 && j < 8) [ i - 1; i + 1 ])
  in
  let topologies =
    [
      ("pair", [| [ 1 ]; [ 0 ] |], None);
      ("hidden3", hidden_chain, None);
      ("chain8", chain8, None);
      ("clique5", complete_graph 5, None);
      ("two-pairs", [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |], None);
      ("cs-bridge", fst cs_bridge, snd cs_bridge);
      ("isolated", [| [ 1 ]; [ 0 ]; [] |], None);
    ]
  in
  List.iter
    (fun (label, adjacency, cs_adjacency) ->
      List.iter
        (fun (mode, params) ->
          List.iter
            (fun seed ->
              List.iter
                (fun retry_limit ->
                  let n = Array.length adjacency in
                  let config =
                    {
                      Netsim.Spatial.params;
                      adjacency;
                      cws = Array.init n (fun i -> 16 lsl (i mod 2));
                      duration = 1.;
                      seed;
                    }
                  in
                  let fast =
                    Netsim.Spatial.run ~telemetry:(quiet ()) ?cs_adjacency
                      ?retry_limit config
                  in
                  let slow =
                    Netsim.Spatial.run_reference ~telemetry:(quiet ())
                      ?cs_adjacency ?retry_limit config
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s seed=%d retry=%s bit-identical" label
                       mode seed
                       (match retry_limit with
                       | None -> "inf"
                       | Some r -> string_of_int r))
                    true
                    (Netsim.Spatial.equal_result fast slow))
                [ None; Some 4 ])
            [ 1; 7 ])
        [ ("basic", default); ("rts", rts_cts) ])
    topologies

let test_spatial_event_core_matches_reference_random_25 () =
  (* The acceptance benchmark topology: 25 nodes scattered by the waypoint
     model, snapshot into a connected random geometric graph. *)
  let w =
    Mobility.Waypoint.create ~seed:21
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n:25
  in
  let adjacency = Mobility.Topology.snapshot ~connect_attempts:50 w ~range:180. in
  List.iter
    (fun (mode, params) ->
      let config =
        {
          Netsim.Spatial.params;
          adjacency;
          cws = Array.make 25 32;
          duration = 0.5;
          seed = 13;
        }
      in
      let fast = Netsim.Spatial.run ~telemetry:(quiet ()) config in
      let slow = Netsim.Spatial.run_reference ~telemetry:(quiet ()) config in
      Alcotest.(check bool)
        (Printf.sprintf "random-25/%s bit-identical" mode)
        true
        (Netsim.Spatial.equal_result fast slow))
    [ ("basic", default); ("rts", rts_cts) ]

(* {1 Airtime conservation} *)

(* Random symmetric graph with decode ⊆ carrier-sense: each pair gets a
   decode+cs edge, a cs-only edge, or nothing. *)
let random_topology rng n =
  let adj = Array.make n [] and cs = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prelude.Rng.bernoulli rng 0.35 then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j);
        cs.(i) <- j :: cs.(i);
        cs.(j) <- i :: cs.(j)
      end
      else if Prelude.Rng.bernoulli rng 0.2 then begin
        cs.(i) <- j :: cs.(i);
        cs.(j) <- i :: cs.(j)
      end
    done
  done;
  (adj, cs)

let test_spatial_airtime_conservation =
  QCheck.Test.make ~name:"spatial airtime conserved on random topologies"
    ~count:25
    QCheck.(triple (int_range 2 12) small_nat small_nat)
    (fun (n, topo_seed, sim_seed) ->
      let rng = Prelude.Rng.create (1 + topo_seed) in
      let adjacency, cs_adjacency = random_topology rng n in
      let params = if Prelude.Rng.bernoulli rng 0.5 then default else rts_cts in
      let cws = Array.init n (fun _ -> 8 lsl Prelude.Rng.int rng 4) in
      let r =
        Netsim.Spatial.run ~telemetry:(quiet ()) ~cs_adjacency
          { params; adjacency; cws; duration = 0.5; seed = sim_seed }
      in
      let a = r.airtime in
      let balance =
        a.idle_fraction +. a.success_fraction +. a.collision_fraction
        -. a.overlap_fraction
      in
      Float.abs (balance -. 1.) < 1e-9
      && a.idle_fraction >= 0.
      && a.success_fraction >= 0.
      && a.collision_fraction >= 0.
      && a.overlap_fraction >= 0.
      && a.busy_fraction >= 0.
      && a.busy_fraction <= 1.
      && Array.for_all
           (fun (s : Netsim.Spatial.node_stats) ->
             s.attempts = s.successes + s.local_collisions + s.hidden_failures)
           r.per_node)

let test_spatial_airtime_clipped_at_horizon () =
  (* A short run on a busy clique is guaranteed to end mid-transmission; the
     clipped tallies must still balance and busy time cannot exceed the
     horizon. *)
  let r =
    Netsim.Spatial.run ~telemetry:(quiet ())
      {
        params = default;
        adjacency = complete_graph 4;
        cws = Array.make 4 8;
        duration = 0.02;
        seed = 3;
      }
  in
  let a = r.airtime in
  check_close "balance holds at a mid-frame horizon" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   -. a.overlap_fraction);
  Alcotest.(check bool) "busy cannot exceed the horizon" true
    (a.busy_fraction <= 1.)

(* {1 Grid index & sharded scale} *)

(* Quarter-cell coordinate lattice: with cell = 75 every fourth lattice
   step lands a point exactly on a bucket boundary, the rounding case the
   padded candidate box must absorb. *)
let grid_cell = 75.
let grid_quarter = grid_cell /. 4.
let grid_radii = [| 0.; grid_quarter; grid_cell; 2. *. grid_cell; 500. |]

let grid_point (ix, iy) =
  { Mobility.Geom.x = float_of_int ix *. grid_quarter;
    y = float_of_int iy *. grid_quarter }

let test_grid_query_matches_scan =
  QCheck.Test.make ~name:"grid query equals brute-force scan" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (pair (int_bound 26) (int_bound 26)))
        (int_bound 4))
    (fun (cells, ridx) ->
      let pts = Array.of_list (List.map grid_point cells) in
      let radius = grid_radii.(ridx) in
      let g = Mobility.Grid.create ~cell:grid_cell pts in
      let n = Array.length pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        let got = Mobility.Grid.query g ~radius i in
        let want =
          List.filter
            (fun j ->
              j <> i && Mobility.Geom.within ~range:radius pts.(i) pts.(j))
            (List.init n Fun.id)
        in
        if got <> want then ok := false
      done;
      !ok)

let test_grid_move_incremental =
  QCheck.Test.make ~name:"grid move equals fresh rebuild" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (pair (int_bound 26) (int_bound 26)))
        (small_list (triple small_nat (int_bound 26) (int_bound 26))))
    (fun (cells, moves) ->
      let pts = Array.of_list (List.map grid_point cells) in
      let n = Array.length pts in
      let g = Mobility.Grid.create ~cell:grid_cell pts in
      List.iter
        (fun (idx, ix, iy) ->
          let i = idx mod n in
          let p = grid_point (ix, iy) in
          pts.(i) <- p;
          Mobility.Grid.move g i p)
        moves;
      let fresh = Mobility.Grid.create ~cell:grid_cell pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          Mobility.Grid.query g ~radius:grid_cell i
          <> Mobility.Grid.query fresh ~radius:grid_cell i
        then ok := false
      done;
      !ok)

(* Neighbour arrays (decode prefix, then carrier-sense-only members)
   against the query oracle.  Points mix quarter-cell lattice sites
   (bucket boundaries), uniform random coordinates, and partners offset
   from lattice anchors by the exact Pythagorean vectors (45, 60) and
   (75, 100) — distances of exactly 75 and 125, the decode and
   carrier-sense radii.  Some ids are removed so absent centres and
   absent candidates are covered too. *)
let test_grid_neighbourhoods_match_query =
  QCheck.Test.make ~name:"grid neighbourhoods = query + filter" ~count:100
    QCheck.(
      quad
        (list_of_size Gen.(int_range 1 30) (pair (int_bound 26) (int_bound 26)))
        (small_list
           (pair (float_bound_inclusive 500.) (float_bound_inclusive 500.)))
        (small_list small_nat) bool)
    (fun (cells, randoms, removed, cs_wider) ->
      let range = 75. in
      let cs_range = if cs_wider then 125. else range in
      let anchors = List.map grid_point cells in
      let partners =
        List.concat_map
          (fun (p : Mobility.Geom.point) ->
            [
              { Mobility.Geom.x = p.x +. 45.; y = p.y +. 60. };
              { Mobility.Geom.x = p.x +. 75.; y = p.y +. 100. };
            ])
          anchors
      in
      let randoms =
        List.map (fun (x, y) -> { Mobility.Geom.x; y }) randoms
      in
      let pts = Array.of_list (anchors @ partners @ randoms) in
      let n = Array.length pts in
      let g = Mobility.Grid.create ~cell:grid_cell pts in
      List.iter (fun k -> Mobility.Grid.remove g (k mod n)) removed;
      let hoods, decode = Mobility.Grid.neighbourhoods g ~range ~cs_range in
      let ok = ref (Array.length hoods = n && Array.length decode = n) in
      for i = 0 to n - 1 do
        let near, far =
          List.partition
            (fun j -> Mobility.Geom.within ~range pts.(i) pts.(j))
            (Mobility.Grid.query g ~radius:cs_range i)
        in
        if
          hoods.(i) <> Array.of_list (near @ far)
          || decode.(i) <> List.length near
          || near <> Mobility.Grid.query g ~radius:range i
        then ok := false
      done;
      !ok)

let geo_positions ~seed n =
  let w =
    Mobility.Waypoint.create ~seed
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n
  in
  Mobility.Waypoint.positions w

let test_run_grid_bit_matches_run () =
  List.iter
    (fun (label, n, seed, params, range, cs_range) ->
      let positions = geo_positions ~seed n in
      let adjacency = Mobility.Topology.adjacency ~range positions in
      let cs_adjacency =
        Mobility.Topology.adjacency ~range:cs_range positions
      in
      let cws = Array.init n (fun i -> 16 lsl (i mod 2)) in
      let lists =
        Netsim.Spatial.run ~telemetry:(quiet ()) ~cs_adjacency
          { params; adjacency; cws; duration = 1.; seed }
      in
      let grid =
        Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~params ~positions
          ~range ~cs_range ~cws ~duration:1. ~seed ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: grid core bit-identical" label)
        true
        (Netsim.Spatial.equal_result lists grid))
    [
      ("basic-24", 24, 3, default, 150., 210.);
      ("rts-32", 32, 7, rts_cts, 150., 225.);
      ("cs=range-16", 16, 11, default, 120., 120.);
    ]

(* The ring calendar's sizing corners: AIFS > 0 and TXOP > 1 strategies,
   RTS/CTS, windows 1 and 1024 at max_backoff_stage 7 (1024·2⁷ slots
   outreach the horizon, so the ring caps there), a finite retry limit,
   and a horizon that cuts frames short.  Each case runs the event core
   against the reference loop on adjacency lists, and the grid core
   against the event core on the same positions. *)
let test_spatial_ring_corners () =
  let m7 = { default with max_backoff_stage = 7 } in
  let m7_rts = { rts_cts with max_backoff_stage = 7 } in
  let strategy ~cw ~aifs ~txop i =
    { Dcf.Strategy_space.cw = cw i; aifs = aifs i; txop_frames = txop i;
      rate = 1.0 }
  in
  let cases =
    [
      ( "aifs-txop/basic", default, None, 0.5,
        strategy ~cw:(fun i -> 16 lsl (i mod 2)) ~aifs:(fun i -> i mod 3)
          ~txop:(fun i -> 1 + (i mod 3)) );
      ( "aifs-txop/rts", rts_cts, Some 2, 0.5,
        strategy ~cw:(fun i -> 16 lsl (i mod 2)) ~aifs:(fun i -> 2 * (i mod 2))
          ~txop:(fun i -> 1 + (i mod 4)) );
      ( "w1/m7", m7, Some 3, 0.3,
        strategy ~cw:(fun _ -> 1) ~aifs:(fun i -> i mod 2) ~txop:(fun _ -> 1) );
      ( "w1/m7/rts", m7_rts, None, 0.3,
        strategy ~cw:(fun _ -> 1) ~aifs:(fun _ -> 0)
          ~txop:(fun i -> 1 + (i mod 2)) );
      ( "w1024/m7/rts", m7_rts, Some 1, 1.0,
        strategy ~cw:(fun _ -> 1024) ~aifs:(fun i -> i mod 4)
          ~txop:(fun _ -> 2) );
      ( "mid-frame", default, Some 4, 0.0123,
        strategy ~cw:(fun _ -> 8) ~aifs:(fun _ -> 0) ~txop:(fun _ -> 3) );
    ]
  in
  let late = ref 0 in
  List.iter
    (fun (label, params, retry_limit, duration, strategy) ->
      List.iter
        (fun seed ->
          let n = 24 and range = 150. and cs_range = 210. in
          let positions = geo_positions ~seed n in
          let adjacency = Mobility.Topology.adjacency ~range positions in
          let cs_adjacency =
            Mobility.Topology.adjacency ~range:cs_range positions
          in
          let strategies = Array.init n strategy in
          let cws =
            Array.map (fun (s : Dcf.Strategy_space.t) -> s.cw) strategies
          in
          let config =
            { Netsim.Spatial.params; adjacency; cws; duration; seed }
          in
          let fast =
            Netsim.Spatial.run ~telemetry:(quiet ()) ~cs_adjacency ?retry_limit
              ~strategies config
          in
          let slow =
            Netsim.Spatial.run_reference ~telemetry:(quiet ()) ~cs_adjacency
              ?retry_limit ~strategies config
          in
          let grid =
            Netsim.Spatial.run_grid ~telemetry:(quiet ()) ?retry_limit
              ~strategies ~params ~positions ~range ~cs_range ~cws ~duration
              ~seed ()
          in
          if label = "mid-frame" then late := !late + fast.delivered_late;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: event core = reference" label seed)
            true
            (Netsim.Spatial.equal_result fast slow);
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: grid core = event core" label seed)
            true
            (Netsim.Spatial.equal_result grid fast))
        [ 1; 2; 3 ])
    cases;
  Alcotest.(check bool) "the short horizon cuts frames" true (!late > 0)

(* Minor words per attempt in the event phase: the difference between a
   long and a short run on the same inputs cancels the set-up.  Only the
   RNG's boxed state should remain (two 3-word draws per attempt); the
   bound leaves headroom for buffer growth, not for a per-attempt
   allocation site. *)
let test_spatial_words_per_attempt () =
  let attempts (r : Netsim.Spatial.result) =
    Array.fold_left
      (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.attempts)
      0 r.per_node
  in
  let measure label run =
    let w0 = Gc.minor_words () in
    let short = run 0.3 in
    let w1 = Gc.minor_words () in
    let long = run 1.0 in
    let w2 = Gc.minor_words () in
    let words = (w2 -. w1) -. (w1 -. w0) in
    let per = words /. float_of_int (attempts long - attempts short) in
    if not (per <= 8.) then
      Alcotest.failf "%s: %.2f minor words per attempt (bound 8)" label per
  in
  (* The differential shadow (NETSIM_SPATIAL_DIFF) runs the allocating
     reference loop inside each call; it is switched off for the
     measurement and restored after. *)
  let saved = Option.value (Sys.getenv_opt "NETSIM_SPATIAL_DIFF") ~default:"" in
  Unix.putenv "NETSIM_SPATIAL_DIFF" "0";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "NETSIM_SPATIAL_DIFF" saved)
    (fun () ->
      let n = 200 in
      let positions = geo_positions ~seed:4 n in
      let strategies =
        Array.init n (fun i ->
            {
              Dcf.Strategy_space.cw = 32;
              aifs = i mod 2;
              txop_frames = 1 + (i mod 2);
              rate = 1.0;
            })
      in
      let cws = Array.make n 32 in
      List.iter
        (fun (mode, params) ->
          measure ("grid/" ^ mode) (fun duration ->
              Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~strategies ~params
                ~positions ~range:60. ~cs_range:90. ~cws ~duration ~seed:4 ());
          let adjacency = Mobility.Topology.adjacency ~range:60. positions in
          measure ("lists/" ^ mode) (fun duration ->
              Netsim.Spatial.run ~telemetry:(quiet ()) ~strategies
                { params; adjacency; cws; duration; seed = 4 }))
        [ ("basic", default); ("rts", rts_cts) ])

let sharded_config ?(duration = 0.5) ~seed n =
  {
    Netsim.Sharded.params = default;
    positions = geo_positions ~seed n;
    range = 120.;
    cs_range = 180.;
    cws = Array.make n 32;
    duration;
    seed;
  }

let test_sharded_single_shard_matches_run_grid () =
  let seed = 5 in
  let cfg = sharded_config ~seed 40 in
  let sh = Netsim.Sharded.run ~telemetry:(quiet ()) ~shards:1 cfg in
  let single =
    Netsim.Spatial.run_grid ~telemetry:(quiet ())
      ~rng_of:(Netsim.Sharded.node_rng ~seed) ~params:cfg.params
      ~positions:cfg.positions ~range:cfg.range ~cs_range:cfg.cs_range
      ~cws:cfg.cws ~duration:cfg.duration ~seed ()
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d stats bit-identical" i)
        true
        (Netsim.Spatial.equal_stats s single.per_node.(i)))
    sh.per_node;
  Alcotest.(check int) "one live shard" 1 (Array.length sh.shards);
  Alcotest.(check int) "nothing mirrored" 0 sh.shards.(0).mirrored

let test_sharded_deterministic_across_workers () =
  let cfg = sharded_config ~seed:13 60 in
  let run workers =
    Netsim.Sharded.run ~telemetry:(quiet ())
      ~pool:(Runner.Pool.create ~registry:(quiet ()) ~workers ())
      ~shards:3 cfg
  in
  let a = run 1 and b = run 3 in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d stats identical across pools" i)
        true
        (Netsim.Spatial.equal_stats s b.per_node.(i)))
    a.per_node;
  Alcotest.(check int) "same delivered" a.delivered b.delivered

let test_sharded_close_to_single () =
  (* The calibrated statistical point lives in the conformance suite; this
     is a loose smoke that the boundary protocol is not nonsense. *)
  let seed = 21 in
  let cfg = sharded_config ~duration:1. ~seed 60 in
  let sh = Netsim.Sharded.run ~telemetry:(quiet ()) ~shards:3 cfg in
  let single =
    Netsim.Spatial.run_grid ~telemetry:(quiet ())
      ~rng_of:(Netsim.Sharded.node_rng ~seed) ~params:cfg.params
      ~positions:cfg.positions ~range:cfg.range ~cs_range:cfg.cs_range
      ~cws:cfg.cws ~duration:cfg.duration ~seed ()
  in
  let total r =
    Array.fold_left
      (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.successes)
      0 r
  in
  let a = total sh.per_node and b = total single.per_node in
  Alcotest.(check bool) "both deliver" true (a > 0 && b > 0);
  let rel =
    Float.abs (float_of_int a -. float_of_int b)
    /. float_of_int (Stdlib.max a b)
  in
  Alcotest.(check bool)
    (Printf.sprintf "delivery within 25%% (rel %.3f)" rel)
    true (rel < 0.25)

(* {1 Event calendar} *)

module Cal = Netsim.Calendar

let drain_all cal =
  let out = ref [] in
  while not (Cal.is_empty cal) do
    let slot = Cal.take cal in
    for k = 0 to Cal.due_count cal - 1 do
      out := (slot, Cal.due cal k) :: !out
    done
  done;
  List.rev !out

let test_calendar_basic () =
  let cal = Cal.create ~reach:10 ~capacity:4 in
  Alcotest.(check int) "ring is the power of two above reach" 16
    (Cal.window cal);
  Alcotest.(check int) "starts before slot 0" (-1) (Cal.now cal);
  Alcotest.(check bool) "fresh calendar empty" true (Cal.is_empty cal);
  List.iter
    (fun (slot, key) -> Cal.push cal slot key)
    [ (5, 3); (2, 9); (5, 1); (0, 7); (2, 9); (14, 0) ];
  Alcotest.(check int) "pending counts duplicates" 6 (Cal.pending cal);
  Alcotest.(check int) "earliest slot first" 0 (Cal.take cal);
  Alcotest.(check int) "one key due" 1 (Cal.due_count cal);
  Alcotest.(check (list (pair int int)))
    "drains by slot, then key"
    [ (2, 9); (2, 9); (5, 1); (5, 3); (14, 0) ]
    (drain_all cal);
  Alcotest.(check int) "now is the last slot taken" 14 (Cal.now cal)

let test_calendar_validation () =
  Alcotest.check_raises "reach 0"
    (Invalid_argument "Calendar.create: reach must be >= 1") (fun () ->
      ignore (Cal.create ~reach:0 ~capacity:1));
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Calendar.create: capacity must be >= 1") (fun () ->
      ignore (Cal.create ~reach:4 ~capacity:0));
  let cal = Cal.create ~reach:4 ~capacity:1 in
  Alcotest.check_raises "take of empty"
    (Invalid_argument "Calendar.take: empty calendar") (fun () ->
      ignore (Cal.take cal));
  let outside = Invalid_argument "Calendar.push: slot outside the window" in
  Cal.push cal 3 0;
  ignore (Cal.take cal);
  Alcotest.check_raises "the slot being drained" outside (fun () ->
      Cal.push cal 3 1);
  Alcotest.check_raises "the past" outside (fun () -> Cal.push cal 2 1);
  Alcotest.check_raises "a full ring ahead" outside (fun () ->
      Cal.push cal (3 + Cal.window cal) 1);
  Cal.push cal (3 + Cal.window cal - 1) 5;
  Alcotest.(check int) "the far edge is accepted" 1 (Cal.pending cal)

let test_calendar_interleaved () =
  (* Start the pool at one cell so pushes exercise growth, and push while
     a slot's keys are being read: they land later and leave the due
     keys alone. *)
  let cal = Cal.create ~reach:8 ~capacity:1 in
  List.iter (fun k -> Cal.push cal 4 k) [ 4; 2; 8 ];
  Alcotest.(check int) "first slot" 4 (Cal.take cal);
  Cal.push cal 5 1;
  Cal.push cal 6 6;
  Alcotest.(check (list int)) "due keys undisturbed by pushes" [ 2; 4; 8 ]
    (List.init (Cal.due_count cal) (Cal.due cal));
  Alcotest.(check (list (pair int int)))
    "then the new events" [ (5, 1); (6, 6) ] (drain_all cal);
  Cal.push cal 9 3;
  Alcotest.(check (list (pair int int)))
    "reusable after draining" [ (9, 3) ] (drain_all cal)

(* A schedule is a list of rounds; each round pushes (distance selector,
   key) pairs relative to the current slot and then takes one slot.  The
   selector picks the nearest slot, the farthest (window − 1), the edge
   at [reach] (where the simulator caps its horizon) or anything between,
   and the reference is a plain list sorted by (slot, key). *)
let test_calendar_matches_reference =
  QCheck.Test.make ~name:"drain = sorted reference" ~count:300
    QCheck.(
      pair (int_range 1 300)
        (small_list (small_list (pair small_nat (int_bound 40)))))
    (fun (reach, rounds) ->
      let cal = Cal.create ~reach ~capacity:1 in
      let w = Cal.window cal in
      let reference = ref [] in
      let ok = ref (reach < w && w <= 2 * reach) in
      let distance sel =
        match sel mod 4 with
        | 0 -> w - 1
        | 1 -> 1
        | 2 -> reach
        | _ -> 1 + (sel mod (w - 1))
      in
      let take_and_compare () =
        let sorted = List.sort compare !reference in
        let slot = fst (List.hd sorted) in
        let due, later = List.partition (fun (s, _) -> s = slot) sorted in
        reference := later;
        let got = Cal.take cal in
        let keys = List.init (Cal.due_count cal) (Cal.due cal) in
        if got <> slot || keys <> List.map snd due then ok := false
      in
      let refuses slot =
        let before = Cal.pending cal in
        (try
           Cal.push cal slot 0;
           false
         with Invalid_argument _ -> true)
        && Cal.pending cal = before
      in
      List.iter
        (fun pushes ->
          List.iter
            (fun (sel, key) ->
              let slot = Cal.now cal + distance sel in
              Cal.push cal slot key;
              reference := (slot, key) :: !reference)
            pushes;
          if
            not
              (refuses (Cal.now cal + w)
              && refuses (Cal.now cal)
              && refuses (Cal.now cal - 1))
          then ok := false;
          if !reference <> [] then take_and_compare ())
        rounds;
      while !reference <> [] do
        take_and_compare ()
      done;
      !ok && Cal.is_empty cal)

let test_calendar_allocation_free () =
  let cal = Cal.create ~reach:100 ~capacity:1 in
  let cycle i =
    Cal.push cal (Cal.now cal + 1 + (i mod 97)) i;
    Cal.push cal (Cal.now cal + 1 + (i * 7 mod 100)) (i land 3);
    ignore (Cal.take cal)
  in
  (* Warm-up grows the cell pool and the drain buffer to working size. *)
  for i = 1 to 10_000 do
    cycle i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    cycle i
  done;
  let grew = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "no minor words over 10^5 push/take cycles" 0.
    grew

let suite_calendar =
  [
    Alcotest.test_case "push/take basics" `Quick test_calendar_basic;
    Alcotest.test_case "validation" `Quick test_calendar_validation;
    Alcotest.test_case "interleaved ops and growth" `Quick
      test_calendar_interleaved;
    QCheck_alcotest.to_alcotest test_calendar_matches_reference;
    Alcotest.test_case "allocation-free after warm-up" `Quick
      test_calendar_allocation_free;
  ]

let suite_scale =
  [
    QCheck_alcotest.to_alcotest test_grid_query_matches_scan;
    QCheck_alcotest.to_alcotest test_grid_move_incremental;
    QCheck_alcotest.to_alcotest test_grid_neighbourhoods_match_query;
    Alcotest.test_case "run_grid bit-matches run" `Quick
      test_run_grid_bit_matches_run;
    Alcotest.test_case "sharded = run_grid at one shard" `Quick
      test_sharded_single_shard_matches_run_grid;
    Alcotest.test_case "sharded deterministic across workers" `Quick
      test_sharded_deterministic_across_workers;
    Alcotest.test_case "sharded close to single-domain" `Quick
      test_sharded_close_to_single;
  ]

let suite_slotted =
  [
    Alcotest.test_case "deterministic" `Quick test_slotted_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_slotted_seed_changes_outcome;
    Alcotest.test_case "accounting invariants" `Quick test_slotted_accounting_invariants;
    Alcotest.test_case "single node" `Quick test_slotted_single_node_never_collides;
    Alcotest.test_case "matches bianchi tau/p" `Slow test_slotted_matches_bianchi_tau_p;
    Alcotest.test_case "matches analytic payoff" `Slow test_slotted_matches_analytic_payoff;
    Alcotest.test_case "lemma 4 in simulation" `Slow test_slotted_lemma1_ordering_in_simulation;
    Alcotest.test_case "rts/cts mode" `Quick test_slotted_rts_cts_mode;
    Alcotest.test_case "symmetric fairness" `Slow test_slotted_symmetric_fairness;
    Alcotest.test_case "validation" `Quick test_slotted_validation;
    Alcotest.test_case "payoff oracle" `Quick test_payoff_oracle_positive_near_optimum;
    Alcotest.test_case "per occupies Ts" `Quick test_slotted_per_occupies_ts;
    Alcotest.test_case "per coexists with collisions" `Quick
      test_slotted_per_coexists_with_collisions;
  ]

let suite_spatial =
  [
    Alcotest.test_case "validation" `Quick test_spatial_validation;
    Alcotest.test_case "deterministic" `Quick test_spatial_deterministic;
    Alcotest.test_case "accounting" `Quick test_spatial_accounting;
    Alcotest.test_case "clique has no hidden failures" `Quick test_spatial_complete_graph_has_no_hidden_failures;
    Alcotest.test_case "clique matches slotted" `Slow test_spatial_complete_graph_matches_slotted;
    Alcotest.test_case "isolated node silent" `Quick test_spatial_isolated_node_stays_silent;
    Alcotest.test_case "hidden terminals in basic" `Quick test_spatial_hidden_terminals_appear_in_basic;
    Alcotest.test_case "rts mitigates hidden terminals" `Quick test_spatial_rts_mitigates_hidden_terminals;
    Alcotest.test_case "spatial reuse" `Quick test_spatial_spatial_reuse;
    Alcotest.test_case "aggressive window attempts" `Quick test_spatial_smaller_window_more_attempts;
    Alcotest.test_case "paper scenario smoke" `Slow test_spatial_paper_scenario_runs;
    Alcotest.test_case "rts/cts/nav trace" `Quick test_spatial_rts_cts_trace;
    Alcotest.test_case "basic mode has no handshakes" `Quick
      test_spatial_basic_mode_has_no_handshake_events;
    Alcotest.test_case "event core = reference loop" `Quick
      test_spatial_event_core_matches_reference;
    Alcotest.test_case "event core = reference (random 25)" `Slow
      test_spatial_event_core_matches_reference_random_25;
    QCheck_alcotest.to_alcotest test_spatial_airtime_conservation;
    Alcotest.test_case "airtime clipped at horizon" `Quick
      test_spatial_airtime_clipped_at_horizon;
    Alcotest.test_case "event core = reference (ring corners)" `Quick
      test_spatial_ring_corners;
    Alcotest.test_case "event phase words per attempt" `Quick
      test_spatial_words_per_attempt;
  ]

let () =
  Alcotest.run "netsim"
    [
      ("slotted", suite_slotted);
      ("spatial", suite_spatial);
      ("scale", suite_scale);
      ("ring", suite_calendar);
    ]
