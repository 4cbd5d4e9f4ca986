(* Unit and property tests for the prelude library: deterministic RNG,
   streaming statistics, numeric helpers, table/plot rendering. *)

open Prelude

let check_float = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 12345 and b = Rng.create 12345 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_diverges () =
  let a = Rng.create 99 in
  let child = Rng.split a in
  let xs = Array.init 16 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 16 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "parent and child streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of range: %d" v
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.failf "int_in out of range: %d" v
  done;
  (* Degenerate one-point range *)
  Alcotest.(check int) "singleton range" 9 (Rng.int_in rng 9 9)

let test_rng_int_uniformity () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int samples /. 10. in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.05 then Alcotest.failf "bucket %d deviates %.3f" i dev)
    buckets

let test_rng_float_range () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_float_mean () =
  let rng = Rng.create 23 in
  let acc = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add acc (Rng.float rng 1.0)
  done;
  check_close ~eps:0.01 "uniform mean ~ 0.5" 0.5 (Stats.mean acc)

let test_rng_bernoulli () =
  let rng = Rng.create 29 in
  let hits = ref 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close ~eps:0.02 "bernoulli(0.3) rate" 0.3
    (float_of_int !hits /. float_of_int samples)

let test_rng_exponential_mean () =
  let rng = Rng.create 31 in
  let acc = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add acc (Rng.exponential rng 2.0)
  done;
  check_close ~eps:0.02 "Exp(2) mean ~ 0.5" 0.5 (Stats.mean acc)

let test_rng_exponential_positive () =
  let rng = Rng.create 37 in
  for _ = 1 to 10_000 do
    if Rng.exponential rng 1.0 < 0. then Alcotest.fail "negative exponential"
  done;
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng 0.))

let test_rng_normal_moments () =
  let rng = Rng.create 41 in
  let acc = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add acc (Rng.normal rng ~mean:3. ~stddev:2.)
  done;
  check_close ~eps:0.03 "normal mean" 3. (Stats.mean acc);
  check_close ~eps:0.05 "normal stddev" 2. (Stats.stddev acc)

let test_rng_pick () =
  let rng = Rng.create 43 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng arr in
    if not (Array.mem v arr) then Alcotest.failf "picked foreign value %d" v
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 47 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

(* {1 Stats} *)

let test_stats_empty () =
  let t = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count t);
  check_float "mean" 0. (Stats.mean t);
  check_float "variance" 0. (Stats.variance t)

let test_stats_single () =
  let t = Stats.create () in
  Stats.add t 4.2;
  check_float "mean" 4.2 (Stats.mean t);
  check_float "variance of one" 0. (Stats.variance t);
  check_float "min" 4.2 (Stats.min t);
  check_float "max" 4.2 (Stats.max t)

let test_stats_known_values () =
  let t = Stats.create () in
  Stats.add_many t [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |];
  check_float "mean" 5. (Stats.mean t);
  check_close "sample variance" (32. /. 7.) (Stats.variance t);
  check_close "population variance" 4. (Stats.population_variance t);
  check_float "min" 2. (Stats.min t);
  check_float "max" 9. (Stats.max t);
  check_close "sum" 40. (Stats.sum t)

let test_stats_merge_equals_combined () =
  let xs = Array.init 37 (fun i -> sin (float_of_int i)) in
  let ys = Array.init 53 (fun i -> cos (float_of_int i) *. 3.) in
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  Stats.add_many a xs;
  Stats.add_many b ys;
  Stats.add_many all xs;
  Stats.add_many all ys;
  let merged = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count all) (Stats.count merged);
  check_close "mean" (Stats.mean all) (Stats.mean merged);
  check_close "variance" (Stats.variance all) (Stats.variance merged);
  check_float "min" (Stats.min all) (Stats.min merged);
  check_float "max" (Stats.max all) (Stats.max merged)

let test_stats_merge_with_empty () =
  let a = Stats.create () in
  Stats.add_many a [| 1.; 2.; 3. |];
  let e = Stats.create () in
  let m1 = Stats.merge a e and m2 = Stats.merge e a in
  check_close "merge right empty" 2. (Stats.mean m1);
  check_close "merge left empty" 2. (Stats.mean m2)

let test_stats_confidence_interval () =
  let t = Stats.create () in
  Stats.add_many t (Array.make 100 5.);
  check_float "zero spread" 0. (Stats.confidence_interval_95 t);
  let u = Stats.create () in
  Stats.add_many u [| 0.; 10. |];
  (* stddev = sqrt(50), n = 2 *)
  check_close "ci" (1.96 *. sqrt 50. /. sqrt 2.) (Stats.confidence_interval_95 u)

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  check_float "p0 is min" 15. (Stats.percentile xs 0.);
  check_float "p100 is max" 50. (Stats.percentile xs 100.);
  check_float "median" 35. (Stats.median xs);
  check_close "p25 interpolates" 20. (Stats.percentile xs 25.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_percentile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  let _ = Stats.percentile xs 50. in
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] xs

let test_jain_fairness () =
  check_float "perfectly fair" 1. (Stats.jain_fairness [| 5.; 5.; 5.; 5. |]);
  check_close "one hog" 0.25 (Stats.jain_fairness [| 1.; 0.; 0.; 0. |]);
  check_float "all zero treated as fair" 1. (Stats.jain_fairness [| 0.; 0. |]);
  (* (1+2)² / (2·(1+4)) = 9/10 *)
  check_close "known mixed" 0.9 (Stats.jain_fairness [| 1.; 2. |])

let test_jain_fairness_bounds =
  QCheck.Test.make ~name:"jain fairness lies in [1/n, 1]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.))
    (fun xs ->
      QCheck.assume (Array.exists (fun x -> x > 0.) xs);
      let f = Stats.jain_fairness xs in
      f >= (1. /. float_of_int (Array.length xs)) -. 1e-9 && f <= 1. +. 1e-9)

let test_welford_matches_naive =
  QCheck.Test.make ~name:"welford variance matches two-pass" ~count:200
    QCheck.(array_of_size Gen.(int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let t = Stats.create () in
      Stats.add_many t xs;
      let n = float_of_int (Array.length xs) in
      let mean = Array.fold_left ( +. ) 0. xs /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      Util.approx_equal ~eps:1e-6 var (Stats.variance t))

(* {1 Util} *)

let test_clamp () =
  check_float "below" 1. (Util.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (Util.clamp ~lo:1. ~hi:2. 3.);
  check_float "inside" 1.5 (Util.clamp ~lo:1. ~hi:2. 1.5);
  Alcotest.(check int) "int below" 1 (Util.clamp_int ~lo:1 ~hi:5 0);
  Alcotest.(check int) "int above" 5 (Util.clamp_int ~lo:1 ~hi:5 9)

let test_approx_equal () =
  Alcotest.(check bool) "relative tolerance" true
    (Util.approx_equal ~eps:1e-9 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "absolute near zero" true
    (Util.approx_equal ~eps:1e-9 0. 1e-10);
  Alcotest.(check bool) "clearly different" false (Util.approx_equal 1. 2.)

let test_linspace () =
  let xs = Util.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  check_float "first" 0. xs.(0);
  check_float "last" 1. xs.(4);
  check_float "step" 0.25 xs.(1);
  Alcotest.check_raises "too few"
    (Invalid_argument "Util.linspace: need at least two points") (fun () ->
      ignore (Util.linspace 0. 1. 1))

let test_logspace () =
  let xs = Util.logspace 1. 100. 3 in
  check_close "geometric middle" 10. xs.(1);
  check_close "endpoints" 100. xs.(2)

let test_int_range () =
  Alcotest.(check (array int)) "simple" [| 3; 4; 5 |] (Util.int_range 3 5);
  Alcotest.(check (array int)) "empty" [||] (Util.int_range 5 3);
  Alcotest.(check (array int)) "singleton" [| 7 |] (Util.int_range 7 7)

let test_argmax_argmin () =
  let a = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  Alcotest.(check int) "argmax" 5 (Util.argmax Fun.id a);
  Alcotest.(check int) "argmin (first of ties)" 1 (Util.argmin Fun.id a);
  Alcotest.check_raises "empty" (Invalid_argument "Util.argmax: empty array")
    (fun () -> ignore (Util.argmax Fun.id [||]))

let test_geometric_sum () =
  check_close "r=2, k=5" 31. (Util.geometric_sum 2. 5);
  check_close "r=1 limit" 5. (Util.geometric_sum 1. 5);
  check_close "r=0.5" 1.875 (Util.geometric_sum 0.5 4);
  check_float "k=0" 0. (Util.geometric_sum 3. 0)

let test_geometric_sum_matches_loop =
  QCheck.Test.make ~name:"geometric sum matches explicit loop" ~count:200
    QCheck.(pair (float_range 0. 3.) (int_range 0 20))
    (fun (r, k) ->
      let direct = ref 0. and pow = ref 1. in
      for _ = 1 to k do
        direct := !direct +. !pow;
        pow := !pow *. r
      done;
      Util.approx_equal ~eps:1e-6 !direct (Util.geometric_sum r k))

let test_fold_range () =
  Alcotest.(check int) "sum 1..10" 55
    (Util.fold_range 1 10 ~init:0 ~f:( + ));
  Alcotest.(check int) "empty range keeps init" 42
    (Util.fold_range 5 4 ~init:42 ~f:( + ))

(* {1 Table} *)

let test_table_render () =
  let columns = [ Table.column ~align:Table.Left "name"; Table.column "value" ] in
  let out = Table.render columns [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: sep :: row1 :: _ ->
      Alcotest.(check string) "header" "name  | value" header;
      Alcotest.(check string) "separator" "------+------" sep;
      Alcotest.(check string) "left/right alignment" "alpha |     1" row1
  | _ -> Alcotest.fail "unexpected table shape");
  Alcotest.(check bool) "trailing newline" true
    (String.length out > 0 && out.[String.length out - 1] = '\n')

let test_table_pads_short_rows () =
  let columns = [ Table.column "a"; Table.column "b" ] in
  let out = Table.render columns [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_rejects_wide_rows () =
  let columns = [ Table.column "a" ] in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Table.render: row wider than header") (fun () ->
      ignore (Table.render columns [ [ "1"; "2" ] ]))

let test_table_render_floats () =
  let out = Table.render_floats ~precision:3 [ Table.column "x" ] [ [ 3.14159 ] ] in
  Alcotest.(check bool) "rounds to precision" true (contains out "3.14");
  Alcotest.(check bool) "drops extra digits" false (contains out "3.14159")

(* {1 Ascii_plot} *)

let test_plot_empty () =
  Alcotest.(check string) "placeholder" "(no data to plot)\n" (Ascii_plot.plot [])

let test_plot_contains_glyphs_and_legend () =
  let series =
    [
      { Ascii_plot.label = "rising"; points = [| (0., 0.); (1., 1.); (2., 2.) |] };
      { Ascii_plot.label = "falling"; points = [| (0., 2.); (1., 1.); (2., 0.) |] };
    ]
  in
  let out = Ascii_plot.plot ~width:20 ~height:10 ~title:"demo" series in
  Alcotest.(check bool) "title present" true
    (String.length out >= 4 && String.sub out 0 4 = "demo");
  Alcotest.(check bool) "legend mentions labels" true
    (contains out "rising" && contains out "falling");
  Alcotest.(check bool) "first glyph plotted" true (String.contains out '*');
  Alcotest.(check bool) "second glyph plotted" true (String.contains out '+')

let test_plot_constant_series () =
  (* Degenerate y-range must not crash or divide by zero. *)
  let series = [ { Ascii_plot.label = "flat"; points = [| (0., 1.); (5., 1.) |] } ] in
  let out = Ascii_plot.plot series in
  Alcotest.(check bool) "rendered" true (String.length out > 0)

let suite_rng =
  [
    Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "copy continues stream" `Quick test_rng_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_bad_bound;
    Alcotest.test_case "int_in range" `Quick test_rng_int_in;
    Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
    Alcotest.test_case "float range" `Quick test_rng_float_range;
    Alcotest.test_case "float mean" `Quick test_rng_float_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
    Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
    Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
    Alcotest.test_case "pick membership" `Quick test_rng_pick;
    Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
  ]

let suite_stats =
  [
    Alcotest.test_case "empty accumulator" `Quick test_stats_empty;
    Alcotest.test_case "single observation" `Quick test_stats_single;
    Alcotest.test_case "known values" `Quick test_stats_known_values;
    Alcotest.test_case "merge equals combined" `Quick test_stats_merge_equals_combined;
    Alcotest.test_case "merge with empty" `Quick test_stats_merge_with_empty;
    Alcotest.test_case "confidence interval" `Quick test_stats_confidence_interval;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile preserves input" `Quick test_percentile_does_not_mutate;
    Alcotest.test_case "jain fairness" `Quick test_jain_fairness;
    QCheck_alcotest.to_alcotest test_jain_fairness_bounds;
    QCheck_alcotest.to_alcotest test_welford_matches_naive;
  ]

let test_sort_prefix () =
  let a = [| 5; 3; 9; 1; 7; 1; 42 |] in
  Prelude.Util.sort_prefix a 6;
  Alcotest.(check (array int)) "prefix sorted, tail untouched"
    [| 1; 1; 3; 5; 7; 9; 42 |] a;
  Prelude.Util.sort_prefix a 0;
  Alcotest.check_raises "length past the end"
    (Invalid_argument "Util.sort_prefix: length out of bounds") (fun () ->
      Prelude.Util.sort_prefix a 8)

(* Lengths straddle the insertion/heapsort switch at 32. *)
let test_sort_prefix_matches_sort =
  QCheck.Test.make ~name:"sort_prefix = List.sort on the prefix" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 100) int) small_nat)
    (fun (xs, cut) ->
      let a = Array.of_list xs in
      let len = if a = [||] then 0 else cut mod (Array.length a + 1) in
      Prelude.Util.sort_prefix a len;
      let prefix = List.filteri (fun i _ -> i < len) xs in
      let tail = List.filteri (fun i _ -> i >= len) xs in
      Array.to_list a = List.sort compare prefix @ tail)

let suite_util =
  [
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    Alcotest.test_case "linspace" `Quick test_linspace;
    Alcotest.test_case "logspace" `Quick test_logspace;
    Alcotest.test_case "int_range" `Quick test_int_range;
    Alcotest.test_case "argmax/argmin" `Quick test_argmax_argmin;
    Alcotest.test_case "geometric_sum" `Quick test_geometric_sum;
    QCheck_alcotest.to_alcotest test_geometric_sum_matches_loop;
    Alcotest.test_case "fold_range" `Quick test_fold_range;
    Alcotest.test_case "sort_prefix" `Quick test_sort_prefix;
    QCheck_alcotest.to_alcotest test_sort_prefix_matches_sort;
  ]

let suite_render =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "table rejects wide rows" `Quick test_table_rejects_wide_rows;
    Alcotest.test_case "table float formatting" `Quick test_table_render_floats;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot glyphs and legend" `Quick test_plot_contains_glyphs_and_legend;
    Alcotest.test_case "plot constant series" `Quick test_plot_constant_series;
  ]

let () =
  Alcotest.run "prelude"
    [
      ("rng", suite_rng);
      ("stats", suite_stats);
      ("util", suite_util);
      ("render", suite_render);
    ]
