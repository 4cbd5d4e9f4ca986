(* The serving workloads: the real [macgame serve --socket] daemon driven
   from this process.

   serve_hot   open loop over a repeated working set, warmed once, so every
               answer comes from the memo tier: transport, parse, dispatch
               and render do the work, the solver none.
   serve_cold  closed loop over requests never seen before, each a cold
               solve written through to a fresh store; then the daemon
               restarts on that store and the same stream is replayed from
               the store tier. *)

module Jx = Telemetry.Jsonx
module Req = Serve.Request
module K = Benchkit

let params = Dcf.Params.default

(* {1 Reference answers} *)

(* The reply the service must give, built from direct oracle calls on a
   fresh analytic oracle (the daemon's default configuration).  Only the
   payload is compared, so the service times written here do not matter. *)
let rec expected_reply oracle ~id (op : Req.op) =
  let ok ?tier result =
    Jx.Obj
      ((("id", id) :: ("ok", Jx.Bool true)
       :: (match tier with Some t -> [ ("tier", Jx.String t) ] | None -> []))
      @ [ ("elapsed_ms", Jx.Float 0.); ("result", result) ])
  in
  match op with
  | Tau { n; w } ->
      let v = Macgame.Oracle.uniform oracle ~n ~w in
      ok ~tier:"memo" (Jx.Obj [ ("tau", Jx.Float v.tau); ("p", Jx.Float v.p) ])
  | Welfare { n; w } ->
      let v = Macgame.Oracle.uniform oracle ~n ~w in
      ok ~tier:"memo"
        (Jx.Obj
           [
             ("utility", Jx.Float v.utility);
             ("welfare", Jx.Float (float_of_int n *. v.utility));
           ])
  | Payoff { profile } ->
      let u = Macgame.Oracle.payoffs_profile oracle profile in
      ok ~tier:"memo"
        (Jx.Obj
           [
             ( "payoffs",
               Jx.List (Array.to_list (Array.map (fun x -> Jx.Float x) u)) );
           ])
  | Batch members ->
      ok
        (Jx.Obj
           [
             ( "replies",
               Jx.List
                 (List.map
                    (fun (m : Req.t) -> expected_reply oracle ~id:m.id m.op)
                    members) );
           ])
  | Ne _ -> invalid_arg "expected_reply: ne is not in the hot mix"

(* Index of the first occurrence of [sub] in [s], without allocating: the
   checks run between a reply and the next request of a closed loop. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let contains s sub = Option.is_some (find_sub s sub)

(* The part of a reply that must not depend on the tier that answered. *)
let result_part line =
  match find_sub line "\"result\":" with
  | Some i -> String.sub line i (String.length line - i)
  | None -> line

let classify_failure reply =
  if reply = "" then "unanswered"
  else if contains reply "\"ok\":false" then "error_reply"
  else "mismatch"

(* {1 Hot working set} *)

type hot = {
  templates : Req.op array;  (** leaves first, then batches *)
  bodies : string array;  (** request line per template, without its id *)
  expected : string array;  (** reply payload per template *)
  stream : int array;  (** template index per request *)
}

let hot_inputs ~seed ~count =
  let leaves, batches = Gen.hot_templates ~seed in
  let templates = Array.append leaves batches in
  let oracle = Macgame.Oracle.analytic params in
  let expected =
    Array.map
      (fun op ->
        K.payload (Jx.to_string (expected_reply oracle ~id:(Jx.Int 0) op)))
      templates
  in
  {
    templates;
    bodies = Array.map Gen.body templates;
    expected;
    stream = Gen.hot_stream ~seed ~leaves ~batches count;
  }

(* Request [i] of the stream. *)
let hot_line h i =
  Gen.line_of_body ~id:i h.bodies.(h.stream.(i mod Array.length h.stream))

let hot_lines h ~first ~count = Array.init count (fun k -> hot_line h (first + k))

(* Spawn the daemon and run the warm pass (every template once, leaves
   before batches); returns the daemon, a connection and the set-up time:
   spawn to first accepted request plus the warm pass. *)
let hot_setup env h ~phase =
  let t0 = Env.now () in
  let d =
    Client.spawn ~cli:env.Env.cli ~socket:(Env.path env "hot.sock")
      ~log:(Env.path env "daemon.log") ()
  in
  let c = Client.conn_of_fd (Client.wait_ready d) in
  Array.iteri
    (fun i op ->
      match Client.call c (Gen.line ~id:(-1 - i) op) with
      | Ok reply, _ ->
          K.check phase ~cause:"error_reply" (contains reply "\"ok\":true")
      | Error cause, _ -> K.fail phase cause)
    h.templates;
  (d, c, Env.now () -. t0)

let check_hot h phase ~first i reply =
  let want = h.expected.(h.stream.((first + i) mod Array.length h.stream)) in
  K.check phase ~cause:(classify_failure reply) (K.payload reply = want)

(* Requests with no answer count once, in the loop that sent them. *)
let count_missing phase ~missing ~lost =
  for _ = 1 to missing do
    K.fail phase (if lost then "connection" else "unanswered")
  done

let lat_sorted (r : Client.open_result) =
  K.sorted_copy
    (Array.of_list
       (List.filter Float.is_finite (Array.to_list r.latency_us)))

let reference_rate = 10000.
let rounds = 20
let setup_repetitions = 7

(* One open-loop run at [rate]; every reply is checked. *)
let trial h phase conns ~next ~rate ~seconds =
  let count = Int.max 200 (int_of_float (rate *. seconds)) in
  let first = !next in
  let r =
    Client.open_loop ~conns ~rate ~first ~on_reply:(check_hot h phase ~first)
      (hot_lines h ~first ~count)
  in
  count_missing phase ~missing:r.unanswered ~lost:r.broken;
  next := first + count;
  r

(* Throughput with 32 requests outstanding per connection. *)
let saturation h phase conns ~next ~seconds =
  let first = !next in
  let s =
    Client.saturate ~conns ~window:32 ~seconds ~first
      ~next_line:(fun i -> hot_line h (first + i))
      ~on_reply:(check_hot h phase ~first)
  in
  count_missing phase ~missing:s.missing ~lost:s.lost;
  next := first + s.sent;
  s.rate

let hot env =
  let h = hot_inputs ~seed:env.Env.seed ~count:65536 in
  let setup_phase = K.phase "hot.setup" in
  let phase = K.phase "hot.requests" in
  let setups = ref [] in
  let daemon = ref None in
  for k = 1 to setup_repetitions do
    let d, c, s = hot_setup env h ~phase:setup_phase in
    setups := s :: !setups;
    if k < setup_repetitions then begin
      Client.close_conn c;
      Client.stop d
    end
    else daemon := Some (d, c)
  done;
  let d, c = Option.get !daemon in
  let conns =
    Array.init env.nproc (fun k ->
        if k = 0 then c.Client.fd else Client.wait_ready d)
  in
  let next = ref 0 in
  (* Rounds interleave the latency and throughput measurements so each
     figure samples the whole run: the shared host's speed drifts over
     seconds, and a figure measured in one block would carry that drift. *)
  let ref_lat = ref [] and lags = ref [] and sat_all = ref [] and sat_one = ref [] in
  for _ = 1 to rounds do
    let r =
      trial h phase conns ~next ~rate:reference_rate
        ~seconds:(0.02 *. env.seconds)
    in
    ref_lat := lat_sorted r :: !ref_lat;
    lags := r.lag_us :: !lags;
    sat_all := saturation h phase conns ~next ~seconds:(0.015 *. env.seconds) :: !sat_all;
    sat_one :=
      saturation h phase [| conns.(0) |] ~next ~seconds:(0.015 *. env.seconds)
      :: !sat_one
  done;
  let ref_lat = K.sorted_copy (Array.concat !ref_lat) in
  let ref_dist = K.dist ref_lat in
  let lag = K.dist (Array.concat !lags) in
  let sat_all = Array.of_list !sat_all and sat_one = Array.of_list !sat_one in
  let rss = Client.peak_rss_mb d.pid in
  Array.iteri (fun k fd -> if k > 0 then Unix.close fd) conns;
  Client.close_conn c;
  Client.stop d;
  Client.release ();
  let setups = Array.of_list (List.rev !setups) in
  Env.say "  serve_hot: open loop, %d connections, reference rate %.0f req/s"
    env.nproc reference_rate;
  Env.reps "setup_s" "s" setups;
  Env.figure "peak_rss_mb" rss "MB" "daemon VmHWM";
  Env.figure "hot.p50_us" ref_dist.p50 "us" (K.pp_dist ~unit_:"us" ref_dist);
  Env.figure "hot.p99_us" (K.percentile ref_lat 0.99) "us"
    (Printf.sprintf "n=%d, %d beyond" ref_dist.count
       (K.beyond ~n:ref_dist.count 0.99));
  Env.reps "hot.saturation_qps" "req/s" sat_all;
  Env.reps "hot.saturation_qps_1conn" "req/s" sat_one;
  Env.figure "hot.generator_lag_us" lag.tail "us" (K.pp_dist ~unit_:"us" lag);
  ( [ setup_phase; phase ],
    [
      K.metric "setup_s" "s" (K.median setups);
      K.metric "peak_rss_mb" "MB" rss;
      K.metric "latency_ms" "ms" (ref_dist.p50 /. 1000.);
      K.metric "primary_rate" "1/s" (K.median sat_all);
      K.metric "secondary_rate" "1/s" (K.median sat_one);
    ] )

(* {1 serve_cold} *)

let cold_store env = Env.fresh_dir env "cold-store"

(* Unseen requests per second of the run's budget. *)
let cold_requests_per_s = 3000.

(* Cycles of (fresh store, unseen requests, restart, replay): the shared
   host's speed drifts over seconds, so each figure is the median over
   cycles spread across the run, and each rate the median over [blocks]
   blocks of every cycle.  Requests stay unseen across cycles. *)
let cycles = 4
let blocks = 8

(* Phase 1: spawn on a fresh store, then one caller sends [count]
   never-seen requests back to back.  The count is fixed by the run's
   budget, not by the program's speed, so the store the replay reopens is
   the same size on every commit.  Returns the request lines, their result
   payloads (for the replay comparison), latencies and per-block
   throughput. *)
let cold_first_phase env g ~store ~phase ~count =
  let t0 = Env.now () in
  let d =
    Client.spawn ~cli:env.Env.cli ~socket:(Env.path env "cold.sock")
      ~log:(Env.path env "daemon.log") ~store ()
  in
  let c = Client.conn_of_fd (Client.wait_ready d) in
  let spawn_s = Env.now () -. t0 in
  let lines = ref [] and results = ref [] and lat = ref [] in
  let done_at = Array.make count 0. in
  let started = Env.now () in
  let k = ref 0 in
  while !k < count do
    let line = Gen.line ~id:!k (Gen.next_cold g) in
    let reply, rtt = Client.call c line in
    (match reply with
    | Ok reply ->
        let ok = contains reply "\"ok\":true" && contains reply "\"tier\":\"cold\"" in
        K.check phase
          ~cause:(if contains reply "\"ok\":true" then "not_cold"
                  else classify_failure reply)
          ok;
        if (not ok) && phase.failed <= 3 then
          Env.say "    failed request: %s\n    reply: %s" line reply;
        results := result_part reply :: !results
    | Error cause ->
        K.fail phase cause;
        results := "" :: !results);
    lines := line :: !lines;
    lat := (rtt *. 1e6) :: !lat;
    done_at.(!k) <- Env.now ();
    incr k
  done;
  let rss = Client.peak_rss_mb d.pid in
  Client.close_conn c;
  Client.stop d;
  ( spawn_s,
    Array.of_list (List.rev !lines),
    Array.of_list (List.rev !results),
    Array.of_list (List.rev !lat),
    K.block_rates ~start:started ~blocks done_at,
    rss )

(* Phase 2: restart on the filled store and replay the same stream. *)
let cold_replay env ~store ~phase ~lines ~results =
  let t0 = Env.now () in
  let d =
    Client.spawn ~cli:env.Env.cli ~socket:(Env.path env "cold.sock")
      ~log:(Env.path env "daemon.log") ~store ()
  in
  let c = Client.conn_of_fd (Client.wait_ready d) in
  let reopen_s = Env.now () -. t0 in
  let done_at = Array.make (Array.length lines) 0. in
  let started = Env.now () in
  Array.iteri
    (fun i line ->
      (match Client.call c line with
      | Ok reply, _ ->
          K.check phase
            ~cause:
              (if not (contains reply "\"ok\":true") then classify_failure reply
               else if not (contains reply "\"tier\":\"store\"") then "not_store"
               else "payload_differs")
            (contains reply "\"ok\":true"
            && contains reply "\"tier\":\"store\""
            && result_part reply = results.(i))
      | Error cause, _ -> K.fail phase cause);
      done_at.(i) <- Env.now ())
    lines;
  let rss = Client.peak_rss_mb d.pid in
  Client.close_conn c;
  Client.stop d;
  (reopen_s, K.block_rates ~start:started ~blocks done_at, rss)

let cold env =
  let first = K.phase "cold.first_phase" in
  let replay = K.phase "cold.replay" in
  let g = Gen.cold_gen ~seed:env.Env.seed in
  let count =
    int_of_float (cold_requests_per_s *. env.seconds /. float_of_int cycles)
  in
  let runs =
    List.init cycles (fun _ ->
        let store = cold_store env in
        let spawn_s, lines, results, lat, rates1, rss1 =
          cold_first_phase env g ~store ~phase:first ~count
        in
        let reopen_s, rates2, rss2 =
          cold_replay env ~store ~phase:replay ~lines ~results
        in
        Env.rm_rf store;
        (spawn_s +. reopen_s, lat, rates1, rates2, Float.max rss1 rss2))
  in
  Client.release ();
  let col f = Array.of_list (List.map f runs) in
  let setups = col (fun (s, _, _, _, _) -> s) in
  let lat = Array.concat (List.map (fun (_, l, _, _, _) -> l) runs) in
  let cold_rps = Array.concat (List.map (fun (_, _, r, _, _) -> r) runs) in
  let replay_rps = Array.concat (List.map (fun (_, _, _, r, _) -> r) runs) in
  let rss = Array.fold_left Float.max 0. (col (fun (_, _, _, _, m) -> m)) in
  let n = Array.length lat in
  let d = K.dist lat in
  Env.say "  serve_cold: closed loop, 1 caller, %d cycles of %d unseen requests"
    cycles count;
  Env.reps "setup_s" "s" setups;
  Env.figure "peak_rss_mb" rss "MB" "daemon VmHWM, largest of all daemons";
  Env.figure "cold.p50_us" d.p50 "us" (K.pp_dist ~unit_:"us" d);
  Env.figure "cold.p99_us" (K.percentile (K.sorted_copy lat) 0.99) "us"
    (Printf.sprintf "n=%d, %d beyond" n (K.beyond ~n 0.99));
  Env.reps "cold.rps" "req/s" cold_rps;
  Env.reps "replay.rps" "req/s" replay_rps;
  ( [ first; replay ],
    [
      K.metric "setup_s" "s" (K.median setups);
      K.metric "peak_rss_mb" "MB" rss;
      K.metric "latency_ms" "ms" (d.p50 /. 1000.);
      K.metric "primary_rate" "1/s" (K.median cold_rps);
      K.metric "secondary_rate" "1/s" (K.median replay_rps);
    ] )

(* {1 Traced passes}

   The daemon carries no benchmark spans, so the traced runs replay the
   same generated streams in-process through [Serve.Server.create] /
   [handle_line], timing the benchmark's calls into each layer. *)

let nid_handle = Layers.name "serve.handle_line"
let nid_of_line = Layers.name "serve.request.of_line"
let nid_to_line = Layers.name "serve.reply.to_line"
let nid_memo = Layers.name "oracle.memo"
let nid_cold = Layers.name "oracle.cold"
let nid_solve = Layers.name "dcf.solve"
let nid_ne = Layers.name "core.equilibrium.ne"
let nid_put = Layers.name "store.put"
let nid_open = Layers.name "store.open_dir"
let nid_find = Layers.name "store.find"

let counter reg name = Telemetry.Metric.count (Telemetry.Registry.counter reg name)

let leaves_answered reg =
  counter reg "serve.tier.memo" + counter reg "serve.tier.store"
  + counter reg "serve.tier.cold"

let rec leaf_ops (op : Req.op) =
  match op with Batch ms -> List.concat_map (fun (m : Req.t) -> leaf_ops m.op) ms | op -> [ op ]

(* The oracle call the server makes for one leaf. *)
let oracle_call oracle (op : Req.op) =
  match op with
  | Tau { n; w } | Welfare { n; w } ->
      ignore (Macgame.Oracle.uniform_outcome oracle ~n ~w)
  | Payoff { profile } ->
      ignore (Macgame.Oracle.payoffs_profile_outcome oracle profile)
  | Ne _ | Batch _ -> ()

let us s = 1e6 *. s

let hot_traced env ~trace_file =
  let count = 20_000 in
  let h = hot_inputs ~seed:env.Env.seed ~count in
  let lines = hot_lines h ~first:0 ~count in
  (* The socket side, untraced: latency at the reference rate and the
     generator's lateness. *)
  let phase = K.phase "hot.traced.socket" in
  let d, c, _ = hot_setup env h ~phase in
  let r =
    trial h phase [| c.Client.fd |] ~next:(ref 0) ~rate:reference_rate
      ~seconds:1.5
  in
  Client.close_conn c;
  Client.stop d;
  Client.release ();
  let socket_p50 = (K.dist (lat_sorted r)).p50 in
  let lag = K.dist r.lag_us in
  (* In-process: warm, then the same stream untraced and traced. *)
  let reg = Telemetry.Registry.create () in
  let oracle = Macgame.Oracle.create ~telemetry:reg params in
  let server = Serve.Server.create ~telemetry:reg oracle in
  Array.iteri
    (fun i op -> ignore (Serve.Server.handle_line server (Gen.line ~id:(-1 - i) op)))
    h.templates;
  let bytes = ref 0 in
  let minor0 = Gc.minor_words () in
  let (), untraced =
    Env.timed (fun () ->
        Array.iter
          (fun l ->
            match Serve.Server.handle_line server l with
            | Some reply -> bytes := !bytes + String.length reply
            | None -> ())
          lines)
  in
  let minor_per_req = (Gc.minor_words () -. minor0) /. float_of_int count in
  let memo0 = counter reg "serve.tier.memo" and leaves0 = leaves_answered reg in
  Layers.set_on true;
  let (), traced =
    Env.timed (fun () ->
        Array.iter
          (fun l -> ignore (Layers.span nid_handle (fun () -> Serve.Server.handle_line server l)))
          lines)
  in
  let memo_share =
    float_of_int (counter reg "serve.tier.memo" - memo0)
    /. float_of_int (Int.max 1 (leaves_answered reg - leaves0))
  in
  K.check phase ~cause:"not_memo" (memo_share = 1.);
  (* The layers one by one, on the same stream. *)
  Array.iter
    (fun l ->
      match Layers.span nid_of_line (fun () -> Req.of_line l) with
      | Error _ -> ()
      | Ok req ->
          List.iter
            (fun op -> Layers.span nid_memo (fun () -> oracle_call oracle op))
            (leaf_ops req.op);
          let tree =
            Jx.parse (Option.get (Serve.Server.handle_line server l))
          in
          ignore (Layers.span nid_to_line (fun () -> Serve.Reply.to_line tree)))
    lines;
  Layers.set_on false;
  let s = Layers.collect ~path:trace_file in
  let per_req name = Layers.self_total s name /. float_of_int count in
  let handle = per_req "serve.handle_line" in
  let parse = per_req "serve.request.of_line" in
  let memo = per_req "oracle.memo" in
  let render = per_req "serve.reply.to_line" in
  ( [ phase ],
    [
      K.metric "serve.transport_us" "us" (socket_p50 -. us handle);
      K.metric "serve.handle_line_us" "us" (us handle);
      K.metric "serve.request.of_line_us" "us" (us parse);
      K.metric "serve.reply.to_line_us" "us" (us render);
      K.metric "oracle.memo_us" "us" (us memo);
      K.metric "serve.dispatch_us" "us" (us (handle -. parse -. memo -. render));
      K.metric "serve.minor_words_per_req" "words" minor_per_req;
      K.metric "serve.memo_share" "ratio" memo_share;
      K.metric "serve.reply_bytes" "B" (float_of_int !bytes /. float_of_int count);
      K.metric "hot.generator_lag_us" "us" lag.tail;
      K.metric "trace.serve_hot.overhead_s" "s" (traced -. untraced);
    ] )

let cold_traced env ~trace_file =
  let count = 3000 in
  let g = Gen.cold_gen ~seed:env.Env.seed in
  let ops = Array.init count (fun _ -> Gen.next_cold g) in
  let lines = Array.mapi (fun i op -> Gen.line ~id:i op) ops in
  let phase = K.phase "cold.traced" in
  let serve_pass ~store_dir ~span =
    let reg = Telemetry.Registry.create () in
    let store = Store.open_dir ~telemetry:reg store_dir in
    let oracle = Macgame.Oracle.create ~telemetry:reg ~store params in
    let server = Serve.Server.create ~telemetry:reg oracle in
    let minor0 = Gc.minor_words () in
    let (), wall =
      Env.timed (fun () ->
          Array.iter
            (fun l ->
              match
                if span then Layers.span nid_handle (fun () -> Serve.Server.handle_line server l)
                else Serve.Server.handle_line server l
              with
              | Some reply ->
                  K.check phase ~cause:(classify_failure reply)
                    (contains reply "\"ok\":true")
              | None -> K.fail phase "no_reply")
            lines)
    in
    let minor = Gc.minor_words () -. minor0 in
    Store.close store;
    (reg, wall, minor)
  in
  let _, untraced, _ = serve_pass ~store_dir:(Env.fresh_dir env "traced-a") ~span:false in
  let dir_b = Env.fresh_dir env "traced-b" in
  (* The solver reports its Newton counters to the default registry. *)
  let newton name = counter Telemetry.Registry.default name in
  let steps0 = newton "solver.newton.steps" in
  let fallbacks0 = newton "solver.newton.fallbacks" in
  Layers.set_on true;
  let reg, traced, minor = serve_pass ~store_dir:dir_b ~span:true in
  let steps = newton "solver.newton.steps" - steps0 in
  let fallbacks = newton "solver.newton.fallbacks" - fallbacks0 in
  let profile_solves =
    Array.fold_left
      (fun acc (op : Req.op) -> match op with Payoff _ -> acc + 1 | _ -> acc)
      0 ops
  in
  K.check phase ~cause:"nonconverged"
    (counter reg "oracle.solve.nonconverged" = 0);
  let leaves = leaves_answered reg in
  let cold_share =
    float_of_int (counter reg "serve.tier.cold") /. float_of_int (Int.max 1 leaves)
  in
  K.check phase ~cause:"not_cold" (cold_share = 1.);
  (* Solver and oracle, request by request, on fresh state. *)
  let oracle_c =
    Macgame.Oracle.create ~telemetry:(Telemetry.Registry.create ())
      ~store:(Store.open_dir (Env.fresh_dir env "traced-c")) params
  in
  let cold_calls = ref 0 in
  let cold_call op =
    incr cold_calls;
    Layers.span nid_cold (fun () -> oracle_call oracle_c op)
  in
  Array.iter
    (fun (op : Req.op) ->
      match op with
      | Tau { n; w } | Welfare { n; w } ->
          Layers.span nid_solve (fun () -> ignore (Dcf.Model.homogeneous params ~n ~w));
          cold_call op
      | Payoff { profile } ->
          Layers.span nid_solve (fun () ->
              ignore (Dcf.Model.solve_strategies params profile));
          cold_call op
      | Ne { n } ->
          let o = Macgame.Oracle.analytic params in
          Layers.span nid_ne (fun () ->
              ignore (Macgame.Equilibrium.ne_set o ~n);
              ignore (Macgame.Equilibrium.efficient_cw o ~n))
      | Batch _ -> ())
    ops;
  (* Rows written per cold call, to charge [oracle.cold] its puts. *)
  let store_c = Option.get (Macgame.Oracle.store oracle_c) in
  let rows_per_call =
    float_of_int (Store.entries store_c)
    /. float_of_int (Int.max 1 !cold_calls)
  in
  Store.close store_c;
  (* The store: reopen the filled one, find every key, re-put every row. *)
  let store = Layers.span nid_open (fun () -> Store.open_dir dir_b) in
  let rows = ref [] in
  Store.iter store (fun ~key v -> rows := (key, v) :: !rows);
  List.iter (fun (key, _) -> ignore (Layers.span nid_find (fun () -> Store.find store ~key))) !rows;
  let entries = Store.entries store in
  Store.close store;
  let bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat dir_b f)).Unix.st_size)
      0 (Sys.readdir dir_b)
  in
  let scratch = Store.open_dir (Env.fresh_dir env "traced-d") in
  List.iter (fun (key, v) -> Layers.span nid_put (fun () -> Store.put scratch ~key v)) !rows;
  Store.close scratch;
  Layers.set_on false;
  (* Replay tier mix on the reopened store. *)
  let reg_r = Telemetry.Registry.create () in
  let store = Store.open_dir ~telemetry:reg_r dir_b in
  let server =
    Serve.Server.create ~telemetry:reg_r
      (Macgame.Oracle.create ~telemetry:reg_r ~store params)
  in
  Array.iter (fun l -> ignore (Serve.Server.handle_line server l)) lines;
  Store.close store;
  let store_share =
    float_of_int (counter reg_r "serve.tier.store")
    /. float_of_int (Int.max 1 (leaves_answered reg_r))
  in
  K.check phase ~cause:"not_store" (store_share = 1.);
  List.iter (fun d -> Env.rm_rf (Env.path env d)) [ "traced-a"; "traced-b"; "traced-c"; "traced-d" ];
  let s = Layers.collect ~path:trace_file in
  let mean name = Layers.self_mean s name in
  let cold = mean "oracle.cold" and solve = mean "dcf.solve" and put = mean "store.put" in
  ( [ phase ],
    [
      K.metric "dcf.solve_us" "us" (us solve);
      K.metric "numerics.newton.steps_per_solve" "count"
        (float_of_int steps /. float_of_int (Int.max 1 profile_solves));
      K.metric "numerics.newton.fallbacks_per_solve" "count"
        (float_of_int fallbacks /. float_of_int (Int.max 1 profile_solves));
      K.metric "core.equilibrium.ne_us" "us" (us (mean "core.equilibrium.ne"));
      K.metric "oracle.cold_us" "us" (us cold);
      K.metric "oracle.overhead_us" "us" (us (cold -. solve -. (rows_per_call *. put)));
      K.metric "store.put_us" "us" (us put);
      K.metric "store.open_ms" "ms" (1000. *. mean "store.open_dir");
      K.metric "store.find_us" "us" (us (mean "store.find"));
      K.metric "store.bytes_per_entry" "B" (float_of_int bytes /. float_of_int (Int.max 1 entries));
      K.metric "oracle.nonconverged" "count"
        (float_of_int (counter reg "oracle.solve.nonconverged"));
      K.metric "serve.cold_share" "ratio" cold_share;
      K.metric "serve.store_share" "ratio" store_share;
      K.metric "cold.minor_words_per_req" "words" (minor /. float_of_int count);
      K.metric "trace.serve_cold.overhead_s" "s" (traced -. untraced);
    ] )
