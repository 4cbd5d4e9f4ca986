(* Tests for the serving layer: request parsing (valid forms and every
   malformed-input class), dispatch bit-identity against direct oracle
   calls, batch envelopes, deadline expiry, per-tier accounting, NE-row
   persistence across server restarts, and a socket round-trip. *)

module Jx = Telemetry.Jsonx

let params = Dcf.Params.default
let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let temp_dir () =
  let path = Filename.temp_file "test_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let fresh ?store () =
  let registry = Telemetry.Registry.create ~label:"test-serve" () in
  let oracle = Macgame.Oracle.create ~telemetry:registry ?store params in
  let server = Serve.Server.create ~telemetry:registry oracle in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  (server, oracle, count)

(* Every reply is one JSON line; pull it apart for the assertions. *)
let reply_of_line server line =
  match Serve.Server.handle_line server line with
  | None -> Alcotest.failf "no reply for %S" line
  | Some reply -> Jx.parse reply

let field name json =
  match Jx.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing %S field" name

let float_field name json =
  match Jx.to_float_opt (field name json) with
  | Some v -> v
  | None -> Alcotest.failf "field %S is not a number" name

let string_field name json =
  match field name json with
  | Jx.String s -> s
  | _ -> Alcotest.failf "field %S is not a string" name

let is_ok json = field "ok" json = Jx.Bool true
let error_text json = string_field "error" json

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* {1 Request parsing} *)

let test_parse_ok () =
  let ok line =
    match Serve.Request.of_line line with
    | Ok req -> req
    | Error e -> Alcotest.failf "parse of %S failed: %s" line e
  in
  (match (ok {|{"op":"tau","n":5,"w":32}|}).op with
  | Tau { n = 5; w = 32 } -> ()
  | _ -> Alcotest.fail "tau fields lost");
  (match (ok {|{"op":"welfare","n":2,"w":16}|}).op with
  | Welfare { n = 2; w = 16 } -> ()
  | _ -> Alcotest.fail "welfare fields lost");
  (match (ok {|{"op":"payoff","profile":[16,32,64]}|}).op with
  | Payoff { profile } ->
      Alcotest.(check (array int))
        "payoff windows" [| 16; 32; 64 |]
        (Macgame.Profile.cws profile);
      Alcotest.(check bool)
        "bare windows parse degenerate" true
        (Macgame.Profile.is_degenerate profile)
  | _ -> Alcotest.fail "payoff profile lost");
  (match
     (ok {|{"op":"payoff","profile":[16,{"cw":32,"aifs":2,"txop":3}]}|}).op
   with
  | Payoff { profile } ->
      Alcotest.(check bool)
        "strategy object parsed" true
        (Macgame.Strategy_space.equal profile.(1)
           { Macgame.Strategy_space.cw = 32; aifs = 2; txop_frames = 3;
             rate = 1.0 })
  | _ -> Alcotest.fail "mixed payoff profile lost");
  (match (ok {|{"op":"ne","n":4}|}).op with
  | Ne { n = 4 } -> ()
  | _ -> Alcotest.fail "ne fields lost");
  let req = ok {|{"id":7,"op":"tau","n":5,"w":32,"deadline_ms":250}|} in
  Alcotest.(check bool) "id echoed" true (req.id = Jx.Int 7);
  Alcotest.(check bool) "deadline kept" true (req.deadline_ms = Some 250.);
  match (ok {|{"op":"batch","requests":[{"op":"ne","n":2}]}|}).op with
  | Batch [ { op = Ne { n = 2 }; _ } ] -> ()
  | _ -> Alcotest.fail "batch member lost"

let test_parse_errors () =
  let err line =
    match Serve.Request.of_line line with
    | Error e -> e
    | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" line
  in
  let check_err line needle =
    let e = err line in
    if not (contains_substring e needle) then
      Alcotest.failf "error for %S was %S (wanted %S)" line e needle
  in
  check_err "not json at all" "";
  check_err {|{"n":5,"w":32}|} "op";
  check_err {|{"op":"frobnicate"}|} "unknown op";
  check_err {|{"op":"tau","n":5}|} "w";
  check_err {|{"op":"tau","n":0,"w":32}|} "n";
  check_err {|{"op":"tau","n":5,"w":-1}|} "w";
  check_err {|{"op":"payoff","profile":[]}|} "profile";
  check_err {|{"op":"payoff","profile":[16,"x"]}|} "profile";
  check_err {|{"op":"tau","n":5,"w":32,"deadline_ms":"soon"}|} "deadline_ms";
  check_err
    {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|}
    "nest"

(* {1 Dispatch} *)

let test_tau_bitmatch () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:5 ~w:64 in
  let reply = reply_of_line server {|{"op":"tau","n":5,"w":64}|} in
  Alcotest.(check bool) "ok reply" true (is_ok reply);
  let result = field "result" reply in
  check_bits "served tau" view.tau (float_field "tau" result);
  check_bits "served p" view.p (float_field "p" result);
  Alcotest.(check string) "memo tier (oracle already warm)" "memo"
    (string_field "tier" reply)

let test_welfare_bitmatch () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:10 ~w:128 in
  let reply = reply_of_line server {|{"op":"welfare","n":10,"w":128}|} in
  let result = field "result" reply in
  check_bits "served utility" view.utility (float_field "utility" result);
  check_bits "served welfare" (10. *. view.utility)
    (float_field "welfare" result)

let test_payoff_bitmatch () =
  let server, oracle, _ = fresh () in
  let profile = [| 16; 32; 32; 64 |] in
  let direct = Macgame.Oracle.payoffs oracle profile in
  let reply = reply_of_line server {|{"op":"payoff","profile":[16,32,32,64]}|} in
  match field "payoffs" (field "result" reply) with
  | Jx.List served ->
      Alcotest.(check int) "one payoff per node" 4 (List.length served);
      List.iteri
        (fun i v ->
          match Jx.to_float_opt v with
          | Some u -> check_bits "served payoff" direct.(i) u
          | None -> Alcotest.fail "payoff not a number")
        served
  | _ -> Alcotest.fail "payoffs not a list"

let test_batch_envelope () =
  let server, _, count = fresh () in
  let reply =
    reply_of_line server
      ({|{"id":"b1","op":"batch","requests":[|}
      ^ {|{"id":1,"op":"tau","n":2,"w":32},|}
      ^ {|{"id":2,"op":"tau","n":2,"w":32},|}
      ^ {|{"id":3,"op":"tau","n":2,"w":32,"deadline_ms":0}]}|})
  in
  Alcotest.(check bool) "envelope ok" true (is_ok reply);
  Alcotest.(check bool) "envelope carries no tier" true
    (Jx.member "tier" reply = None);
  (match field "replies" (field "result" reply) with
  | Jx.List [ first; second; third ] ->
      Alcotest.(check bool) "ids in order" true
        (field "id" first = Jx.Int 1
        && field "id" second = Jx.Int 2
        && field "id" third = Jx.Int 3);
      Alcotest.(check string) "first member cold" "cold"
        (string_field "tier" first);
      Alcotest.(check string) "repeat member memo" "memo"
        (string_field "tier" second);
      Alcotest.(check bool) "expired member errors inside the batch" true
        (not (is_ok third))
  | _ -> Alcotest.fail "replies not a 3-list");
  (* The envelope and its three members each count as a request; only the
     invalid member errs. *)
  Alcotest.(check int) "requests counted" 4 (count "serve.requests");
  Alcotest.(check int) "one error" 1 (count "serve.errors")

let test_nonconverged_solve_is_error_reply () =
  (* A strangled solver budget (PR 9): the non-converged heterogeneous
     solve must come back as an error reply — never a fabricated answer —
     while uniform members of the same batch still answer. *)
  let registry = Telemetry.Registry.create ~label:"test-serve-nc" () in
  let oracle =
    Macgame.Oracle.create ~telemetry:registry ~solver_max_iter:1 params
  in
  let server = Serve.Server.create ~telemetry:registry oracle in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  let reply =
    reply_of_line server {|{"id":7,"op":"payoff","profile":[32,64,128,256]}|}
  in
  Alcotest.(check bool) "refused" true (not (is_ok reply));
  Alcotest.(check bool) "reason names convergence" true
    (let e = error_text reply in
     let rec has i =
       i + 8 <= String.length e && (String.sub e i 8 = "converge" || has (i + 1))
     in
     has 0);
  Alcotest.(check int) "counted as serve error" 1 (count "serve.errors");
  Alcotest.(check int) "counted as oracle refusal" 1
    (count "oracle.solve.nonconverged");
  (* One bad member does not poison its batch siblings. *)
  let batch =
    reply_of_line server
      ({|{"id":"b","op":"batch","requests":[|}
      ^ {|{"id":1,"op":"tau","n":3,"w":64},|}
      ^ {|{"id":2,"op":"payoff","profile":[32,64,128,256]},|}
      ^ {|{"id":3,"op":"tau","n":3,"w":128}]}|})
  in
  match field "replies" (field "result" batch) with
  | Jx.List [ first; second; third ] ->
      Alcotest.(check bool) "uniform member ok" true (is_ok first);
      Alcotest.(check bool) "hostile member refused" true (not (is_ok second));
      Alcotest.(check bool) "later member unaffected" true (is_ok third)
  | _ -> Alcotest.fail "replies not a 3-list"

let test_deadline_expired () =
  let server, _, count = fresh () in
  let reply = reply_of_line server {|{"op":"tau","n":5,"w":64,"deadline_ms":0}|} in
  Alcotest.(check bool) "deadline reply is an error" true (not (is_ok reply));
  Alcotest.(check string) "reason" "deadline exceeded" (error_text reply);
  Alcotest.(check int) "counted as error" 1 (count "serve.errors");
  Alcotest.(check int) "no tier consumed" 0
    (count "serve.tier.memo" + count "serve.tier.store"
   + count "serve.tier.cold")

let test_malformed_inputs_never_raise () =
  let server, _, _ = fresh () in
  let lines =
    [
      "garbage";
      "{";
      {|{"op":"tau"}|};
      {|{"op":"ne","n":"five"}|};
      {|{"op":"payoff","profile":"wide"}|};
      {|[1,2,3]|};
    ]
  in
  List.iter
    (fun line ->
      let reply = reply_of_line server line in
      Alcotest.(check bool)
        (Printf.sprintf "error reply for %S" line)
        true
        (not (is_ok reply) && error_text reply <> ""))
    lines;
  Alcotest.(check bool) "blank line yields no reply" true
    (Serve.Server.handle_line server "   " = None)

(* Byte-level mutations of well-formed request lines (overwrites, cuts,
   doubled spans): whatever the bytes, [handle_line] answers with one JSON
   reply line and never raises. *)
let prop_mutated_lines_answered =
  let seeds =
    [|
      {|{"id":1,"op":"tau","n":5,"w":32,"deadline_ms":250}|};
      {|{"id":"p","op":"payoff","profile":[16,{"cw":32,"aifs":2,"txop":3,"rate":0.5}]}|};
      {|{"id":3,"op":"batch","requests":[{"op":"ne","n":2},{"op":"welfare","n":2,"w":16}]}|};
    |]
  in
  let mutate =
    let open QCheck.Gen in
    let bytes = "[]{}\",:0123456789-+.eE\\u \000\255" in
    int_bound (Array.length seeds - 1) >>= fun i ->
    let line = seeds.(i) in
    let n = String.length line in
    int_bound (n - 1) >>= fun at ->
    int_bound (n - at) >>= fun len ->
    oneof
      [
        map
          (fun c -> String.mapi (fun j x -> if j = at then c else x) line)
          (map (String.get bytes) (int_bound (String.length bytes - 1)));
        return (String.sub line 0 at);
        return (String.sub line 0 (at + len) ^ String.sub line at (n - at));
      ]
  in
  let server, _, _ = fresh () in
  QCheck.Test.make ~name:"mutated request lines get one reply, never raise"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") mutate) (fun line ->
      match Serve.Server.handle_line server line with
      | None -> String.trim line = ""
      | Some reply -> (
          match Jx.member "ok" (Jx.parse reply) with
          | Some (Jx.Bool _) -> true
          | _ -> false))

(* A 1 MB line of brackets is refused at the nesting bound, by the request
   parse and by the id salvage that parses it again, without walking the
   line. *)
let test_deep_nesting_refused () =
  let server, _, count = fresh () in
  let started = Unix.gettimeofday () in
  let reply = reply_of_line server (String.make 1_000_000 '[') in
  Alcotest.(check bool) "error reply" true (not (is_ok reply));
  Alcotest.(check bool) "names the nesting" true
    (contains_substring (error_text reply) "nesting");
  Alcotest.(check bool) "refused without walking the line" true
    (Unix.gettimeofday () -. started < 0.5);
  Alcotest.(check int) "counted as an error" 1 (count "serve.errors")

(* The protocol's deepest request: batch -> requests -> member -> profile ->
   strategy object, five levels, with every strategy knob set. *)
let test_deep_batch_parses () =
  let leaf i =
    Printf.sprintf
      {|{"id":%d,"op":"payoff","profile":[{"cw":%d,"aifs":2,"txop":3,"rate":0.5},{"cw":64,"aifs":3},128,{"cw":256,"txop":2}]}|}
      i (16 * (i + 1))
  in
  let line =
    {|{"id":"deep","op":"batch","requests":[|}
    ^ String.concat "," (List.init 5 leaf)
    ^ "]}"
  in
  match Serve.Request.of_line line with
  | Ok { op = Batch members; _ } ->
      Alcotest.(check int) "five leaves" 5 (List.length members);
      List.iter
        (fun (m : Serve.Request.t) ->
          match m.op with
          | Payoff { profile } ->
              Alcotest.(check bool) "multi-knob profile" false
                (Macgame.Profile.is_degenerate profile)
          | _ -> Alcotest.fail "leaf is not a payoff")
        members
  | Ok _ -> Alcotest.fail "not a batch"
  | Error e -> Alcotest.failf "deep batch refused: %s" e

let test_salvaged_id () =
  let server, _, _ = fresh () in
  let reply = reply_of_line server {|{"id":"req-9","op":"frobnicate"}|} in
  Alcotest.(check bool) "id survives a bad op" true
    (field "id" reply = Jx.String "req-9")

let test_tier_accounting () =
  let server, _, count = fresh () in
  let ask line = ignore (reply_of_line server line) in
  ask {|{"op":"tau","n":5,"w":64}|};
  ask {|{"op":"tau","n":5,"w":64}|};
  ask {|{"op":"welfare","n":5,"w":64}|};
  Alcotest.(check int) "one cold solve" 1 (count "serve.tier.cold");
  Alcotest.(check int) "two memo answers" 2 (count "serve.tier.memo");
  Alcotest.(check int) "three requests" 3 (count "serve.requests");
  Alcotest.(check int) "no errors" 0 (count "serve.errors")

(* {1 NE rows persist across server restarts} *)

let test_ne_store_roundtrip () =
  let dir = temp_dir () in
  let first =
    Store.with_store dir (fun store ->
        let server, _, _ = fresh ~store () in
        let cold = reply_of_line server {|{"op":"ne","n":2}|} in
        Alcotest.(check string) "first answer is cold" "cold"
          (string_field "tier" cold);
        let memo = reply_of_line server {|{"op":"ne","n":2}|} in
        Alcotest.(check string) "repeat is memo" "memo"
          (string_field "tier" memo);
        field "result" cold)
  in
  Store.with_store dir (fun store ->
      let server, _, _ = fresh ~store () in
      let reply = reply_of_line server {|{"op":"ne","n":2}|} in
      Alcotest.(check string) "restart answers from the store" "store"
        (string_field "tier" reply);
      let again = field "result" reply in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " identical") true
            (field name again = field name first))
        [ "w_lo"; "w_hi"; "w_star" ];
      check_bits "welfare identical"
        (float_field "welfare" first)
        (float_field "welfare" again))

(* {1 Socket transport} *)

let test_socket_roundtrip () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:5 ~w:64 in
  let path = Filename.temp_file "test_serve_sock" "" in
  Sys.remove path;
  let listener =
    Thread.create
      (fun () ->
        Serve.Server.serve_socket server ~path ~max_inflight:2
          ~max_connections:1 ())
      ()
  in
  (* Wait for the socket file, then connect. *)
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Thread.delay 0.01;
      wait (tries - 1)
    end
  in
  wait 500;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"id\":1,\"op\":\"tau\",\"n\":5,\"w\":64}\n";
  output_string oc "not json\n";
  flush oc;
  let first = Jx.parse (input_line ic) in
  let second = Jx.parse (input_line ic) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Thread.join listener;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "ok over the socket" true (is_ok first);
  check_bits "tau over the socket" view.tau
    (float_field "tau" (field "result" first));
  Alcotest.(check bool) "error reply over the socket" true
    (not (is_ok second));
  Alcotest.(check bool) "socket file removed on exit" true
    (not (Sys.file_exists path))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "serve"
    [
      ( "request",
        [
          quick "well-formed requests parse" test_parse_ok;
          quick "malformed requests return Error" test_parse_errors;
        ] );
      ( "dispatch",
        [
          quick "tau bit-matches the oracle" test_tau_bitmatch;
          quick "welfare bit-matches the oracle" test_welfare_bitmatch;
          quick "payoff bit-matches the oracle" test_payoff_bitmatch;
          quick "batch envelope and member tiers" test_batch_envelope;
          quick "non-converged solve is an error reply"
            test_nonconverged_solve_is_error_reply;
          quick "expired deadline is refused" test_deadline_expired;
          quick "malformed inputs never raise" test_malformed_inputs_never_raise;
          quick "id salvaged from a bad envelope" test_salvaged_id;
          quick "over-deep nesting is refused fast" test_deep_nesting_refused;
          quick "five-level batch still parses" test_deep_batch_parses;
          QCheck_alcotest.to_alcotest prop_mutated_lines_answered;
          quick "tier counters account every leaf" test_tier_accounting;
        ] );
      ( "persistence",
        [ quick "NE rows survive a server restart" test_ne_store_roundtrip ] );
      ("socket", [ quick "socket round-trip" test_socket_roundtrip ]);
    ]
