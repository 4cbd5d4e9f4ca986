(* spatial_10k: 10^4 nodes on the constant-density substrate (range 120 m,
   carrier sense 180 m, mean degree ~12), the same seeded positions run
   single-domain through [Netsim.Spatial.run_grid] and sharded through
   [Netsim.Sharded.run] with shards = workers = nproc.

   Why 10^4 and not 10^5: at 10^5 nodes the run is bound by memory
   bandwidth, and its speed follows the shared host's memory traffic —
   ten runs spread by 12-34 % there, against about 5 % at 10^4 measured
   alternately in the same minutes. *)

module K = Benchkit

let n = 10_000
let sim = 1.0
let params = Dcf.Params.default

(* Position generation takes milliseconds at this size: repeat it enough
   for a steady median. *)
let setup_repetitions = 41

(* The sharded-vs-single delivered-frames tolerance of the scale tier's
   equivalence gate (bench/exp_scale.ml). *)
let tolerance = 0.05

let successes (per_node : Netsim.Spatial.node_stats array) =
  Array.fold_left
    (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.successes)
    0 per_node

let attempts (per_node : Netsim.Spatial.node_stats array) =
  Array.fold_left
    (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.attempts)
    0 per_node

let nid_positions = Layers.name "mobility.waypoint.positions"
let nid_grid_create = Layers.name "mobility.grid.create"
let nid_build = Layers.name "netsim.spatial.build"
let nid_grid = Layers.name "netsim.spatial.run_grid"
let nid_sharded = Layers.name "netsim.sharded.run"

let positions ~seed = Layers.span nid_positions (fun () -> Gen.positions ~seed n)

(* Every node draws from the stream keyed by its global id, as in every
   shard, so single-domain and sharded runs differ only by halo
   truncation at strip borders. *)
let run_grid ?telemetry ?(nid = nid_grid) ~seed ~duration pos =
  Layers.span nid (fun () ->
      Netsim.Spatial.run_grid ?telemetry ~rng_of:(Netsim.Sharded.node_rng ~seed)
        ~params ~positions:pos ~range:Gen.range ~cs_range:Gen.cs_range
        ~cws:(Array.make n 128) ~duration ~seed ())

let run_sharded env ~seed pos =
  Layers.span nid_sharded (fun () ->
      Netsim.Sharded.run ~telemetry:(Telemetry.Registry.create ())
        ~shards:env.Env.nproc
        {
          Netsim.Sharded.params;
          positions = pos;
          range = Gen.range;
          cs_range = Gen.cs_range;
          cws = Array.make n 128;
          duration = sim;
          seed;
        })

let spatial env =
  let seed = List.hd (Gen.seeds ~seed:env.Env.seed "spatial" 1) in
  let runs = K.phase "spatial.runs" in
  let checks = K.phase "spatial.checks" in
  let setups = Array.make setup_repetitions 0. in
  let pos = ref [||] in
  for k = 0 to setup_repetitions - 1 do
    let p, s = Env.timed (fun () -> positions ~seed) in
    setups.(k) <- s;
    pos := p
  done;
  let pos = !pos in
  let started = Env.now () in
  let grid = ref [] and sharded = ref [] in
  let reps = ref 0 in
  let rep_s = ref 0. in
  (* Peak RSS after the first grid + sharded pair: later repetitions only
     add collector timing noise to the high-water mark. *)
  let rss = ref nan in
  while !reps < 2 || Env.now () -. started +. !rep_s <= env.seconds do
    (match Env.timed (fun () -> run_grid ~seed ~duration:sim pos) with
    | r, wall ->
        K.succeed runs;
        grid := (wall, successes r.per_node) :: !grid
    | exception e ->
        K.fail runs (Printexc.to_string e));
    (match Env.timed (fun () -> run_sharded env ~seed pos) with
    | r, wall ->
        K.succeed runs;
        sharded := (wall, r.delivered) :: !sharded
    | exception e -> K.fail runs (Printexc.to_string e));
    incr reps;
    if !reps = 1 then rss := Env.self_peak_rss_mb ();
    rep_s := (Env.now () -. started) /. float_of_int !reps
  done;
  let walls l = Array.of_list (List.map fst l) in
  let counts l = List.sort_uniq compare (List.map snd l) in
  K.check checks ~cause:"grid_delivered_differs" (List.length (counts !grid) = 1);
  K.check checks ~cause:"sharded_delivered_differs"
    (List.length (counts !sharded) = 1);
  let g = float_of_int (List.hd (counts !grid)) in
  let s = float_of_int (List.hd (counts !sharded)) in
  let rel = Float.abs (s -. g) /. Float.max 1. g in
  K.check checks ~cause:"sharded_outside_tolerance" (rel <= tolerance);
  let gw = walls !grid and sw = walls !sharded in
  let rss = !rss in
  Env.say "  spatial_10k: n=%d, %.2f simulated s, %d shards on %d workers"
    n sim env.nproc env.nproc;
  Env.reps "setup_s" "s" setups;
  Env.figure "peak_rss_mb" rss "MB" "benchmark process VmHWM after the first pair";
  Env.reps "spatial.grid_wall_s" "s" gw;
  Env.reps "spatial.sharded_wall_s" "s" sw;
  Env.reps "spatial.grid_sim_rate" "sim-s/s" (Array.map (fun w -> sim /. w) gw);
  Env.reps "spatial.sharded_sim_rate" "sim-s/s" (Array.map (fun w -> sim /. w) sw);
  Env.say "  delivered: single-domain %.0f, sharded %.0f (rel diff %.4f, tolerance %.2f)"
    g s rel tolerance;
  ( [ runs; checks ],
    [
      K.metric "setup_s" "s" (K.median setups);
      K.metric "peak_rss_mb" "MB" rss;
      K.metric "latency_ms" "ms" (1000. *. K.median gw);
      K.metric "primary_rate" "1/s" (sim /. K.median gw);
      K.metric "secondary_rate" "1/s" (sim /. K.median sw);
    ] )

(* {1 Traced pass} *)

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  (r, a, b)

let traced env ~trace_file =
  let seed = List.hd (Gen.seeds ~seed:env.Env.seed "spatial" 1) in
  Layers.set_on true;
  let pos = positions ~seed in
  let cell_grid =
    Layers.span nid_grid_create (fun () ->
        Mobility.Grid.create ~cell:Gen.range pos)
  in
  ignore (Mobility.Grid.length cell_grid);
  (* A near-zero duration: the neighbourhood resolution before the first
     event.  Running it first also grows the heap, so the untraced and
     traced full runs below start from the same state. *)
  ignore (run_grid ~nid:nid_build ~seed ~duration:1e-6 pos);
  Layers.set_on false;
  let (), untraced =
    Env.timed (fun () ->
        ignore (run_grid ~seed ~duration:sim pos);
        ignore (run_sharded env ~seed pos))
  in
  Layers.set_on true;
  let reg = Telemetry.Registry.create () in
  let t0 = Env.now () in
  let r, g0, g1 = gc_delta (fun () -> run_grid ~telemetry:reg ~seed ~duration:sim pos) in
  let sh = run_sharded env ~seed pos in
  let traced = Env.now () -. t0 in
  Layers.set_on false;
  let summary = Layers.collect ~path:trace_file in
  let total name =
    match Layers.stat summary name with Some s -> s.total_s | None -> 0.
  in
  let build = total "netsim.spatial.build" in
  let full = total "netsim.spatial.run_grid" in
  let event_s = full -. build in
  let att = attempts r.per_node in
  let succ = successes r.per_node in
  let candidates =
    Telemetry.Metric.count (Telemetry.Registry.counter reg "netsim.grid.candidates")
  in
  let walls = Array.map (fun (i : Netsim.Sharded.shard_info) -> i.wall_seconds) sh.shards in
  let max_shard = Array.fold_left Float.max 0. walls in
  let mean_shard =
    Array.fold_left ( +. ) 0. walls /. float_of_int (Int.max 1 (Array.length walls))
  in
  let mirrored =
    Array.fold_left (fun acc (i : Netsim.Sharded.shard_info) -> acc + i.mirrored) 0 sh.shards
  in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576. in
  let checks = K.phase "spatial.traced" in
  K.check checks ~cause:"sharded_outside_tolerance"
    (Float.abs (float_of_int (sh.delivered - succ))
     <= tolerance *. float_of_int (Int.max 1 succ));
  ( [ checks ],
    [
    K.metric "mobility.waypoint.positions_ms" "ms"
      (1000. *. total "mobility.waypoint.positions");
    K.metric "mobility.grid.create_ms" "ms" (1000. *. total "mobility.grid.create");
    K.metric "spatial.build_s" "s" build;
    K.metric "spatial.event_s" "s" event_s;
    K.metric "spatial.attempts_per_wall_s" "1/s" (float_of_int att /. event_s);
    K.metric "spatial.delivered_share" "ratio"
      (float_of_int succ /. float_of_int (Int.max 1 att));
    K.metric "netsim.grid.candidates_per_attempt" "count"
      (float_of_int candidates /. float_of_int (Int.max 1 att));
    K.metric "spatial.minor_words" "words" (g1.minor_words -. g0.minor_words);
    K.metric "spatial.major_collections" "count"
      (float_of_int (g1.major_collections - g0.major_collections));
    K.metric "spatial.top_heap_mb" "MB" (float_of_int g1.top_heap_words *. word_mb);
    K.metric "sharded.max_shard_s" "s" max_shard;
    K.metric "sharded.join_s" "s" (total "netsim.sharded.run" -. max_shard);
    K.metric "sharded.ghost_ratio" "ratio" (float_of_int mirrored /. float_of_int n);
    K.metric "sharded.imbalance" "ratio" (max_shard /. Float.max mean_shard 1e-9);
    K.metric "trace.spatial_10k.overhead_s" "s" (traced -. untraced);
  ] )
