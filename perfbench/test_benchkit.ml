(* Unit tests of the benchmark's own helpers: the percentile rule, block
   throughput, failure accounting, reply normalisation and the result
   line. *)

module K = Benchkit
module Jx = Telemetry.Jsonx

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let percentile_rule () =
  check_int "p50 of 10" 4 (K.percentile_index ~n:10 0.5);
  check_int "p99 of 100" 98 (K.percentile_index ~n:100 0.99);
  check_int "p99 of 1000" 989 (K.percentile_index ~n:1000 0.99);
  check_int "p100 is the maximum" 9 (K.percentile_index ~n:10 1.0);
  check_int "one sample" 0 (K.percentile_index ~n:1 0.99);
  check_int "ten beyond p99 of 1000" 10 (K.beyond ~n:1000 0.99);
  let level n = K.tail_level ~n in
  Alcotest.(check (option (float 0.))) "10 samples: none" None (level 10);
  Alcotest.(check (option (float 0.))) "19 samples: none" None (level 19);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 0.5) (level 20);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 0.99) (level 1000);
  Alcotest.(check (option (float 0.))) "10000 samples: p99.9" (Some 0.999)
    (level 10000);
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check_float "p99 value" 990. (K.percentile sorted 0.99);
  let d = K.dist (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  check_int "dist count" 1000 d.count;
  check_float "dist p50" 500. d.p50;
  check_float "dist tail" 990. d.tail

(* Python: statistics.quantiles(xs, n=4). *)
let quartiles_match_python () =
  let q1, q2, q3 = K.quartiles [| 4.; 1.; 3.; 2. |] in
  check_float "q1" 1.25 q1;
  check_float "q2" 2.5 q2;
  check_float "q3" 3.75 q3;
  let q1, q2, q3 = K.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1 of 1..10" 2.75 q1;
  check_float "q2 of 1..10" 5.5 q2;
  check_float "q3 of 1..10" 8.25 q3;
  check_float "median even" 2.5 (K.median [| 1.; 4.; 2.; 3. |])

let throughput_blocks () =
  (* 10 requests: the first five 0.1 s apart, the last five 0.5 s apart. *)
  let done_at =
    Array.init 10 (fun i ->
        if i < 5 then 0.1 *. float_of_int (i + 1)
        else 0.5 +. (0.5 *. float_of_int (i - 4)))
  in
  let r = K.block_rates ~start:0. ~blocks:2 done_at in
  check_float "fast block" 10. r.(0);
  check_float "slow block" 2. r.(1);
  Alcotest.check_raises "more blocks than requests"
    (Invalid_argument "Benchkit.block_rates")
    (fun () -> ignore (K.block_rates ~start:0. ~blocks:3 [| 1.; 2. |]))

let failure_accounting () =
  let p = K.phase "p" in
  for _ = 1 to 7 do K.succeed p done;
  K.fail p "timeout";
  K.fail p "error_reply";
  K.check p ~cause:"timeout" false;
  K.check p ~cause:"timeout" true;
  check_int "attempted" 11 p.attempted;
  check_int "succeeded" 8 p.succeeded;
  check_int "failed" 3 p.failed;
  check_int "timeouts" 2 (List.assoc "timeout" p.causes);
  check_float "share" (3. /. 11.) (K.failure_share ~attempted:p.attempted ~failed:p.failed);
  check_float "no attempts" 0. (K.failure_share ~attempted:0 ~failed:0);
  let q = K.phase "q" in
  K.succeed q;
  Alcotest.(check (pair int int)) "totals" (12, 3) (K.totals [ p; q ])

let result_round_trip () =
  let metrics =
    [
      K.metric "latency_ms" "ms" 0.053882598876953125;
      K.metric "setup_s" "s" 1e-7;
      K.metric "primary_rate" "1/s" 28741.259935361621;
      K.metric "whole" "count" 3.;
    ]
  in
  let line =
    Jx.to_string (K.result_json ~correct:true ~attempted:1000 ~failed:0 metrics)
  in
  let json = Jx.parse line in
  Alcotest.(check (option bool)) "correct" (Some true)
    (match Jx.member "correct" json with Some (Jx.Bool b) -> Some b | _ -> None);
  Alcotest.(check (option int)) "attempted" (Some 1000)
    (match Jx.member "attempted" json with Some (Jx.Int i) -> Some i | _ -> None);
  Alcotest.(check (option int)) "failed" (Some 0)
    (match Jx.member "failed" json with Some (Jx.Int i) -> Some i | _ -> None);
  let ms = Option.get (Jx.member "metrics" json) in
  List.iter
    (fun (m : K.metric) ->
      let entry = Option.get (Jx.member m.name ms) in
      let v = Option.bind (Jx.member "value" entry) Jx.to_float_opt in
      Alcotest.(check (option int64)) (m.name ^ " bits")
        (Some (Int64.bits_of_float m.value))
        (Option.map Int64.bits_of_float v);
      Alcotest.(check (option string)) (m.name ^ " unit") (Some m.unit_)
        (match Jx.member "unit" entry with Some (Jx.String u) -> Some u | _ -> None))
    metrics;
  Alcotest.check_raises "non-finite refused"
    (Invalid_argument "Benchkit.result_json: metric bad is not finite")
    (fun () ->
      ignore (K.result_json ~correct:true ~attempted:1 ~failed:0 [ K.metric "bad" "s" nan ]))

let reply_payload () =
  let batch =
    {|{"id":7,"ok":true,"elapsed_ms":0.0123,"result":{"replies":[{"id":0,"ok":true,"tier":"memo","elapsed_ms":1e-05,"result":{"tau":0.1,"p":0.2}}]}}|}
  in
  Alcotest.(check string) "ids and service times dropped"
    {|"ok":true,"result":{"replies":[{"id":0,"ok":true,"tier":"memo","result":{"tau":0.1,"p":0.2}}]}}|}
    (K.payload batch);
  Alcotest.(check string) "last field" {|{"a":1}|}
    (K.strip_elapsed {|{"a":1,"elapsed_ms":2.5}|});
  Alcotest.(check (option int)) "echoed id" (Some 7) (K.reply_id batch);
  Alcotest.(check (option int)) "negative id" (Some (-3))
    (K.reply_id {|{"id":-3,"ok":true}|});
  Alcotest.(check (option int)) "no id" None (K.reply_id {|"ok":true}|});
  Alcotest.(check (option int)) "non-integer id" None
    (K.reply_id {|{"id":"x","ok":true}|})

let () =
  Alcotest.run "benchkit"
    [
      ( "benchkit",
        [
          Alcotest.test_case "percentile index rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
          Alcotest.test_case "throughput over blocks" `Quick throughput_blocks;
          Alcotest.test_case "failure-share arithmetic" `Quick failure_accounting;
          Alcotest.test_case "result line round-trips through Jsonx" `Quick result_round_trip;
          Alcotest.test_case "reply payload and id" `Quick reply_payload;
        ] );
    ]
