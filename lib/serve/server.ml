module Jx = Telemetry.Jsonx

type ne_row = { w_lo : int; w_hi : int; w_star : int; welfare : float }

type t = {
  oracle : Macgame.Oracle.t;
  registry : Telemetry.Registry.t;
  requests : Telemetry.Metric.counter;
  errors : Telemetry.Metric.counter;
  tier_memo : Telemetry.Metric.counter;
  tier_store : Telemetry.Metric.counter;
  tier_cold : Telemetry.Metric.counter;
  latency_ms : Telemetry.Metric.histogram;
  (* NE rows are derived (searches over the oracle), so the oracle's own
     memo/store tiers would misattribute them: a fully memoized search is
     still recomputed fold-by-fold.  The server memoizes the finished row
     per n, with store write-through under the oracle's identity prefix. *)
  ne_memo : (int, ne_row) Hashtbl.t;
  lock : Mutex.t;
}

let create ?(telemetry = Telemetry.Registry.default) oracle =
  {
    oracle;
    registry = telemetry;
    requests = Telemetry.Registry.counter telemetry "serve.requests";
    errors = Telemetry.Registry.counter telemetry "serve.errors";
    tier_memo = Telemetry.Registry.counter telemetry "serve.tier.memo";
    tier_store = Telemetry.Registry.counter telemetry "serve.tier.store";
    tier_cold = Telemetry.Registry.counter telemetry "serve.tier.cold";
    latency_ms = Telemetry.Registry.histogram telemetry "serve.latency_ms";
    ne_memo = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let oracle t = t.oracle

let note_tier t (tier : Macgame.Oracle.tier) =
  Telemetry.Metric.incr
    (match tier with
    | Memo -> t.tier_memo
    | Store -> t.tier_store
    | Cold -> t.tier_cold)

(* {2 NE rows} *)

let ne_store_key t ~n =
  Printf.sprintf "%s|ne|n=%d" (Macgame.Oracle.identity t.oracle) n

let ne_row_to_json row =
  Jx.Obj
    [
      ("w_lo", Jx.Int row.w_lo);
      ("w_hi", Jx.Int row.w_hi);
      ("w_star", Jx.Int row.w_star);
      ("welfare", Jx.Float row.welfare);
    ]

let ne_row_of_json json =
  let int_field name =
    match Jx.member name json with Some (Jx.Int v) -> Some v | _ -> None
  in
  match
    ( int_field "w_lo", int_field "w_hi", int_field "w_star",
      Option.bind (Jx.member "welfare" json) Jx.to_float_opt )
  with
  | Some w_lo, Some w_hi, Some w_star, Some welfare ->
      Some { w_lo; w_hi; w_star; welfare }
  | _ -> None

let ne_outcome t ~n : ne_row * Macgame.Oracle.tier =
  Mutex.lock t.lock;
  let memoized = Hashtbl.find_opt t.ne_memo n in
  Mutex.unlock t.lock;
  match memoized with
  | Some row -> (row, Memo)
  | None -> (
      let remember row =
        Mutex.lock t.lock;
        let row =
          match Hashtbl.find_opt t.ne_memo n with
          | Some existing -> existing
          | None ->
              Hashtbl.add t.ne_memo n row;
              row
        in
        Mutex.unlock t.lock;
        row
      in
      let stored =
        Option.bind (Macgame.Oracle.store t.oracle) (fun s ->
            Option.bind (Store.find s ~key:(ne_store_key t ~n)) ne_row_of_json)
      in
      match stored with
      | Some row -> (remember row, Store)
      | None ->
          let ne = Macgame.Equilibrium.ne_set t.oracle ~n in
          let w_star = Macgame.Equilibrium.efficient_cw t.oracle ~n in
          let welfare =
            Macgame.Equilibrium.social_welfare t.oracle ~n ~w:w_star
          in
          let row =
            remember { w_lo = ne.w_lo; w_hi = ne.w_hi; w_star; welfare }
          in
          Option.iter
            (fun s ->
              Store.put s ~key:(ne_store_key t ~n) (ne_row_to_json row))
            (Macgame.Oracle.store t.oracle);
          (row, Cold))

(* {2 Dispatch} *)

let now_ms () = Unix.gettimeofday () *. 1000.

let leaf_result ?batch t (op : Request.op) : Jx.t * Macgame.Oracle.tier =
  match op with
  | Tau { n; w } ->
      let view, tier = Macgame.Oracle.uniform_outcome t.oracle ~n ~w in
      (Jx.Obj [ ("tau", Jx.Float view.tau); ("p", Jx.Float view.p) ], tier)
  | Welfare { n; w } ->
      let view, tier = Macgame.Oracle.uniform_outcome t.oracle ~n ~w in
      ( Jx.Obj
          [
            ("utility", Jx.Float view.utility);
            ("welfare", Jx.Float (float_of_int n *. view.utility));
          ],
        tier )
  | Payoff { profile } ->
      let payoffs, tier =
        Macgame.Oracle.payoffs_profile_outcome ?batch t.oracle profile
      in
      ( Jx.Obj
          [
            ( "payoffs",
              Jx.List
                (Array.to_list (Array.map (fun u -> Jx.Float u) payoffs)) );
          ],
        tier )
  | Ne { n } ->
      let row, tier = ne_outcome t ~n in
      (ne_row_to_json row, tier)
  | Batch _ -> invalid_arg "Server.leaf_result: batch is not a leaf"

let expired ~received_at deadline_ms =
  match deadline_ms with
  | None -> false
  | Some d -> now_ms () -. received_at >= d

let rec reply_to ?batch t ~received_at (req : Request.t) : Reply.t =
  Telemetry.Metric.incr t.requests;
  if expired ~received_at req.deadline_ms then begin
    Telemetry.Metric.incr t.errors;
    Reply.error ~id:req.id "deadline exceeded"
  end
  else
    Telemetry.Span.with_span ~registry:t.registry "serve.request"
      ~fields:(fun () -> [ ("op", Jx.String (Request.op_name req.op)) ])
      (fun () ->
        let started = now_ms () in
        match req.op with
        | Batch members ->
            (* Members run in request order; each carries its own tier and
               honours its own deadline (checked against the same receipt
               time, so queueing before the batch counts for everyone).
               One warm-start context spans the whole envelope: each cold
               Payoff solve seeds the next member's, so dense sweep
               batches amortize to a few Newton steps per point. *)
            let batch = Macgame.Oracle.batch t.oracle in
            let replies =
              List.map (fun m -> reply_to ~batch t ~received_at m) members
            in
            Reply.ok ~id:req.id ~elapsed_ms:(now_ms () -. started)
              (Jx.Obj [ ("replies", Jx.List replies) ])
        | op -> (
            match leaf_result ?batch t op with
            | result, tier ->
                note_tier t tier;
                let elapsed_ms = now_ms () -. started in
                Telemetry.Metric.observe t.latency_ms elapsed_ms;
                Reply.ok ~id:req.id ~tier ~elapsed_ms result
            | exception Invalid_argument reason ->
                Telemetry.Metric.incr t.errors;
                Reply.error ~id:req.id reason
            | exception Macgame.Oracle.Non_converged reason ->
                (* A diverged solve is a refusal, not an answer: the memo
                   and store were never touched, and neither is the wire. *)
                Telemetry.Metric.incr t.errors;
                Reply.error ~id:req.id reason))

(* Salvage the request id from a line whose envelope failed to parse as a
   request, so the client can still correlate the error reply. *)
let salvage_id line =
  match Jx.parse line with
  | exception Jx.Parse_error _ -> Jx.Null
  | json -> Option.value (Jx.member "id" json) ~default:Jx.Null

let internal_error t ~id exn =
  Telemetry.Metric.incr t.errors;
  Reply.error ~id
    (Printf.sprintf "internal error: %s" (Printexc.to_string exn))

let handle_line t line =
  let received_at = now_ms () in
  if String.trim line = "" then None
  else
    let reply =
      match Request.of_line line with
      | Error reason ->
          Telemetry.Metric.incr t.requests;
          Telemetry.Metric.incr t.errors;
          Reply.error ~id:(salvage_id line) reason
      | Ok req -> (
          try reply_to t ~received_at req
          with exn -> internal_error t ~id:req.id exn)
      | exception exn ->
          Telemetry.Metric.incr t.requests;
          internal_error t ~id:Jx.Null exn
    in
    Some (Reply.to_line reply)

(* {2 Transports} *)

let serve_channel t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        Option.iter
          (fun reply ->
            output_string oc reply;
            output_char oc '\n';
            flush oc)
          (handle_line t line);
        loop ()
  in
  loop ()

let serve_connection t sem fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        Option.iter
          (fun reply ->
            output_string oc reply;
            output_char oc '\n';
            flush oc)
          (let () = Semaphore.Counting.acquire sem in
           Fun.protect
             ~finally:(fun () -> Semaphore.Counting.release sem)
             (fun () -> handle_line t line));
        loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Sys_error _ -> ())

let serve_socket t ~path ?(max_inflight = 8) ?max_connections () =
  if max_inflight < 1 then
    invalid_arg "Server.serve_socket: max_inflight must be >= 1";
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      let sem = Semaphore.Counting.make max_inflight in
      let workers = ref [] in
      let accepted = ref 0 in
      let more () =
        match max_connections with
        | None -> true
        | Some limit -> !accepted < limit
      in
      while more () do
        let fd, _ = Unix.accept sock in
        incr accepted;
        workers := Thread.create (serve_connection t sem) fd :: !workers
      done;
      List.iter Thread.join !workers)
