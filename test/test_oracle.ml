(* Tests for the unified payoff oracle: memoization (hit/miss/solve
   accounting, bit-identical replay), agreement with the direct Dcf model
   calls it replaced, permutation invariance of both the analytic and the
   simulated backends, sim-backend determinism, and the search protocol's
   probe statistics on top of it. *)

let params = Dcf.Params.default

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let fresh ?p_hn ?backend () =
  let registry = Telemetry.Registry.create ~label:"test-oracle" () in
  let oracle = Macgame.Oracle.create ~telemetry:registry ?p_hn ?backend params in
  let count name = Telemetry.Metric.count (Telemetry.Registry.counter registry name) in
  (oracle, count)

(* {1 Memoization} *)

let test_uniform_memo_bit_identity () =
  let oracle, count = fresh () in
  let cold = Macgame.Oracle.payoff_uniform oracle ~n:8 ~w:128 in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one solve" 1 (count "oracle.cache.solves");
  let warm = Macgame.Oracle.payoff_uniform oracle ~n:8 ~w:128 in
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "still one solve" 1 (count "oracle.cache.solves");
  check_bits "memo hit replays the stored float" cold warm

let test_profile_memo_bit_identity () =
  let oracle, count = fresh () in
  let profile = [| 64; 128; 64; 256 |] in
  let cold = Macgame.Oracle.payoffs oracle profile in
  let warm = Macgame.Oracle.payoffs oracle profile in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "one solve" 1 (count "oracle.cache.solves");
  Array.iteri (fun i u -> check_bits "memoized payoff" cold.(i) u) warm

let test_uniform_profile_fast_path () =
  (* A uniform profile must route through the (n, w) memo and answer
     exactly what payoff_uniform answers. *)
  let oracle, count = fresh () in
  let u = Macgame.Oracle.payoff_uniform oracle ~n:5 ~w:96 in
  let via_profile = Macgame.Oracle.payoffs oracle (Array.make 5 96) in
  Alcotest.(check int) "profile reused the uniform memo" 1
    (count "oracle.cache.hits");
  Array.iter (fun v -> check_bits "same stored value" u v) via_profile

(* {1 Agreement with the direct model calls the oracle replaced} *)

let test_uniform_matches_model_homogeneous () =
  let oracle, _ = fresh () in
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous params ~n ~w in
      let view = Macgame.Oracle.uniform oracle ~n ~w in
      check_bits "utility" v.Dcf.Model.utility view.Macgame.Oracle.utility;
      check_bits "tau" v.Dcf.Model.tau view.Macgame.Oracle.tau;
      check_bits "p" v.Dcf.Model.p view.Macgame.Oracle.p;
      check_bits "slot_time" v.Dcf.Model.slot_time
        view.Macgame.Oracle.slot_time)
    [ (1, 32); (5, 128); (20, 339); (50, 64) ]

let test_p_hn_matches_model () =
  let oracle, _ = fresh ~p_hn:0.7 () in
  let v = Dcf.Model.homogeneous ~p_hn:0.7 params ~n:6 ~w:64 in
  check_bits "degraded utility" v.Dcf.Model.utility
    (Macgame.Oracle.payoff_uniform oracle ~n:6 ~w:64)

let test_payoffs_match_reference () =
  (* The class-reduced path agrees with the unreduced per-node reference
     iteration to solver tolerance (they iterate different-dimensional
     fixed points). *)
  let oracle, _ = fresh () in
  let profile = [| 32; 64; 128; 64; 32 |] in
  let direct = Reference_solver.utilities params profile in
  let via_oracle = Macgame.Oracle.payoffs oracle profile in
  Array.iteri
    (fun i u ->
      if not (Prelude.Util.approx_equal ~eps:1e-6 direct.(i) u) then
        Alcotest.failf "node %d: reference %.12g vs oracle %.12g" i direct.(i)
          u)
    via_oracle

(* {1 Permutation invariance} *)

let profile_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    array_size (return n) (map (fun w -> 1 lsl w) (int_range 4 9)))

let permutation_pair =
  (* A profile together with a permuted copy of it (reversal composed with
     a rotation exercises non-trivial permutations without an index list). *)
  QCheck.make
    QCheck.Gen.(
      let* profile = profile_gen in
      let* rot = int_range 0 (Array.length profile - 1) in
      let n = Array.length profile in
      let permuted = Array.init n (fun i -> profile.((n - 1 - i + rot) mod n)) in
      return (profile, permuted))
    ~print:(fun (a, b) ->
      Printf.sprintf "%s / %s"
        (String.concat "," (Array.to_list (Array.map string_of_int a)))
        (String.concat "," (Array.to_list (Array.map string_of_int b))))

let payoff_of profile payoffs =
  (* window -> payoff pairs, sorted: the multiset view of the result. *)
  List.sort compare
    (Array.to_list (Array.mapi (fun i w -> (w, payoffs.(i))) profile))

let test_dcf_solve_profile_permutation_invariant =
  (* The class solve gives both orderings bit-identical (τ, p), but the
     metrics fold over nodes in array order, so the utilities agree only
     to ulp-level float-summation noise — the oracle's sort-then-memoize
     is what upgrades this to exact invariance. *)
  QCheck.Test.make ~name:"Dcf.Model.solve_profile is permutation-invariant"
    ~count:50 permutation_pair (fun (profile, permuted) ->
      let a = payoff_of profile (Dcf.Model.solve_profile params profile).Dcf.Model.utilities in
      let b = payoff_of permuted (Dcf.Model.solve_profile params permuted).Dcf.Model.utilities in
      List.for_all2
        (fun (wa, ua) (wb, ub) ->
          wa = wb && Prelude.Util.approx_equal ~eps:1e-9 ua ub)
        a b)

let test_oracle_permutation_invariant =
  QCheck.Test.make ~name:"oracle payoffs are permutation-invariant (exact)"
    ~count:50 permutation_pair (fun (profile, permuted) ->
      let oracle, _ = fresh () in
      let a = payoff_of profile (Macgame.Oracle.payoffs oracle profile) in
      let b = payoff_of permuted (Macgame.Oracle.payoffs oracle permuted) in
      List.for_all2
        (fun (wa, ua) (wb, ub) -> wa = wb && bits ua = bits ub)
        a b)

(* {1 Simulated backends} *)

let sim_cfg = { Macgame.Oracle.duration = 0.2; replicates = 2; seed = 11 }

let test_sim_backend_deterministic () =
  List.iter
    (fun backend ->
      let one () =
        let oracle, _ = fresh ~backend () in
        Macgame.Oracle.payoffs oracle [| 32; 64; 32 |]
      in
      let a = one () and b = one () in
      Array.iteri (fun i u -> check_bits "replayable measurement" a.(i) u) b)
    [ Macgame.Oracle.Sim_slotted sim_cfg; Macgame.Oracle.Sim_spatial sim_cfg ]

let test_sim_backend_permutation_invariant () =
  (* Within-class averaging makes even noisy measurements exactly
     symmetric across permutations. *)
  let oracle, count = fresh ~backend:(Macgame.Oracle.Sim_slotted sim_cfg) () in
  let a = payoff_of [| 32; 64; 32 |] (Macgame.Oracle.payoffs oracle [| 32; 64; 32 |]) in
  let b = payoff_of [| 64; 32; 32 |] (Macgame.Oracle.payoffs oracle [| 64; 32; 32 |]) in
  List.iter2
    (fun (wa, ua) (wb, ub) ->
      Alcotest.(check int) "window class" wa wb;
      check_bits "class payoff" ua ub)
    a b;
  (* Both permutations hit the same canonical entry: one miss, one hit,
     and one solve per replicate. *)
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "replicates counted as solves" sim_cfg.replicates
    (count "oracle.cache.solves")

let test_sim_spatial_memo_bit_identity () =
  (* The Sim_spatial backend now runs the event-driven spatial core; the
     memo contract is unchanged: a warm lookup replays the stored floats
     bit-for-bit without re-simulating. *)
  let oracle, count = fresh ~backend:(Macgame.Oracle.Sim_spatial sim_cfg) () in
  let cold = Macgame.Oracle.payoff_uniform oracle ~n:4 ~w:64 in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "replicates counted as solves" sim_cfg.replicates
    (count "oracle.cache.solves");
  let warm = Macgame.Oracle.payoff_uniform oracle ~n:4 ~w:64 in
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "no extra solves" sim_cfg.replicates
    (count "oracle.cache.solves");
  check_bits "memo hit replays the stored measurement" cold warm

let test_sim_backend_sane_payoffs () =
  let oracle, _ = fresh ~backend:(Macgame.Oracle.Sim_slotted sim_cfg) () in
  let u_sim = Macgame.Oracle.payoff_uniform oracle ~n:5 ~w:128 in
  let analytic, _ = fresh () in
  let u_model = Macgame.Oracle.payoff_uniform analytic ~n:5 ~w:128 in
  Alcotest.(check bool) "within 25% of the model" true
    (Float.abs (u_sim -. u_model) < 0.25 *. u_model)

(* {1 Validation} *)

let test_validation () =
  Alcotest.check_raises "empty profile"
    (Invalid_argument "Oracle.payoffs: empty profile") (fun () ->
      ignore (Macgame.Oracle.payoffs (fst (fresh ())) [||]));
  Alcotest.check_raises "window < 1"
    (Invalid_argument "Oracle.payoffs: window must be >= 1") (fun () ->
      ignore (Macgame.Oracle.payoffs (fst (fresh ())) [| 16; 0 |]));
  Alcotest.check_raises "bad replicates"
    (Invalid_argument "Oracle.create: need replicates >= 1") (fun () ->
      ignore
        (Macgame.Oracle.create
           ~backend:
             (Macgame.Oracle.Sim_slotted
                { duration = 1.; replicates = 0; seed = 0 })
           params));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Oracle.create: sim duration must be positive") (fun () ->
      ignore
        (Macgame.Oracle.create
           ~backend:
             (Macgame.Oracle.Sim_spatial
                { duration = 0.; replicates = 1; seed = 0 })
           params));
  Alcotest.check_raises "bad p_hn"
    (Invalid_argument "Oracle.create: p_hn must be in (0, 1]") (fun () ->
      ignore (Macgame.Oracle.create ~p_hn:0. params))

(* {1 Non-convergence refusal (PR 9)} *)

(* Heterogeneous, so the query routes through the class solver — whose
   iteration budget [solver_max_iter] can be strangled — rather than the
   uniform Brent fast path. *)
let hostile = [| 32; 64; 128; 256; 512 |]

let contains_substring hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let expect_nonconverged f =
  match f () with
  | _ -> Alcotest.fail "expected Oracle.Non_converged"
  | exception Macgame.Oracle.Non_converged reason -> reason

let test_nonconverged_refused_and_not_memoized () =
  let registry = Telemetry.Registry.create ~label:"test-oracle-nc" () in
  let oracle =
    Macgame.Oracle.create ~telemetry:registry ~solver_max_iter:1 params
  in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  let reason =
    expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile)
  in
  Alcotest.(check bool) "reason names the budget" true
    (contains_substring reason "max_iter");
  (* A second identical query must solve (and refuse) again: the failed
     answer was never memoized. *)
  ignore (expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile));
  Alcotest.(check int) "counted both refusals" 2
    (count "oracle.solve.nonconverged");
  Alcotest.(check int) "nothing was memoized" 0 (count "oracle.cache.hits")

let test_nonconverged_never_persisted () =
  let dir = Filename.temp_file "oracle_nc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~store ~solver_max_iter:1 params in
      ignore
        (expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile));
      Alcotest.(check int) "no row written" 0 (Store.entries store))

(* Window pairs at least 8 apart, in either order.  Closer pairs can
   legitimately converge within one iteration: over [16, 256] the ones
   that do are exactly those 2 or 4 apart with both windows >= 194, such
   as (249, 253). *)
let hostile_window_pair =
  QCheck.make
    ~print:QCheck.Print.(pair int int)
    QCheck.Gen.(
      int_range 16 248 >>= fun lo ->
      int_range (lo + 8) 256 >>= fun hi ->
      map (fun swap -> if swap then (hi, lo) else (lo, hi)) bool)

let test_nonconverged_surfaces_at_every_layer =
  QCheck.Test.make
    ~name:"max_iter=1 hostile profiles surface non-convergence at every layer"
    ~count:30 hostile_window_pair
    (fun (w_a, w_b) ->
      let profile = Array.concat [ Array.make 3 w_a; Array.make 3 w_b ] in
      (* Solver layer. *)
      let classes =
        [ (Dcf.Strategy_space.of_cw (min w_a w_b), 3);
          (Dcf.Strategy_space.of_cw (max w_a w_b), 3) ]
      in
      let solver_says =
        not (Dcf.Solver.solve_classes ~max_iter:1 params classes).converged
      in
      (* Model layer. *)
      let model_says =
        not (Dcf.Model.solve_profile ~max_iter:1 params profile).converged
      in
      (* Oracle layer: the same budget must turn into a refusal. *)
      let oracle = Macgame.Oracle.create ~solver_max_iter:1 params in
      let oracle_says =
        match Macgame.Oracle.payoffs oracle profile with
        | _ -> false
        | exception Macgame.Oracle.Non_converged _ -> true
      in
      solver_says && model_says && oracle_says)

let test_batch_outcome_isolates_failures () =
  let oracle = Macgame.Oracle.create ~solver_max_iter:1 params in
  let results =
    Macgame.Oracle.payoffs_batch_outcome oracle
      [|
        Macgame.Profile.of_cws (Array.make 4 64) (* uniform: Brent path *);
        Macgame.Profile.of_cws hostile (* heterogeneous: refused *);
        Macgame.Profile.of_cws (Array.make 4 128) (* unaffected by the error *);
      |]
  in
  (match results.(0) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uniform profile refused: %s" e);
  (match results.(1) with
  | Ok _ -> Alcotest.fail "hostile profile must be refused"
  | Error reason ->
      Alcotest.(check bool) "reason names the budget" true
        (contains_substring reason "max_iter"));
  match results.(2) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "later profile poisoned by the failure: %s" e

let test_batch_agrees_with_unbatched () =
  let oracle, _ = fresh () in
  let profiles =
    Array.init 8 (fun i ->
        Macgame.Profile.of_cws [| 32 + (16 * i); 128; 128; 128 |])
  in
  let batched = Macgame.Oracle.payoffs_batch oracle profiles in
  let reference = Macgame.Oracle.analytic params in
  Array.iteri
    (fun i payoffs ->
      let cold = Macgame.Oracle.payoffs_profile reference profiles.(i) in
      Array.iteri
        (fun j u ->
          Alcotest.(check bool)
            (Printf.sprintf "profile %d node %d tolerance-level" i j)
            true
            (Float.abs (u -. cold.(j)) <= 1e-9 *. Float.max 1. (Float.abs cold.(j))))
        payoffs)
    batched

(* {1 Search probe statistics on top of the oracle} *)

let test_search_stddev_zero_on_exact_oracle () =
  let oracle, _ = fresh () in
  let trace =
    Macgame.Search.run ~w0:16 ~probes:5 ~cw_max:512
      (Macgame.Search.of_oracle oracle ~n:4)
  in
  List.iter
    (fun (m : Macgame.Search.measurement) ->
      check_bits "deterministic probes have zero spread" 0. m.stddev)
    trace.measurements

let test_search_stddev_positive_under_noise () =
  let oracle, _ = fresh () in
  let noisy =
    Macgame.Search.noisy_oracle (Prelude.Rng.create 5) ~rel_stddev:0.05
      (Macgame.Search.of_oracle oracle ~n:4)
  in
  let trace = Macgame.Search.run ~w0:16 ~probes:8 ~cw_max:512 noisy in
  Alcotest.(check bool) "noise shows up in the probe stddev" true
    (List.exists
       (fun (m : Macgame.Search.measurement) -> m.stddev > 0.)
       trace.measurements)

let () =
  Alcotest.run "oracle"
    [
      ( "memo",
        [
          Alcotest.test_case "uniform hit is bit-identical" `Quick
            test_uniform_memo_bit_identity;
          Alcotest.test_case "profile hit is bit-identical" `Quick
            test_profile_memo_bit_identity;
          Alcotest.test_case "uniform profile takes the (n, w) path" `Quick
            test_uniform_profile_fast_path;
        ] );
      ( "model agreement",
        [
          Alcotest.test_case "uniform view = Dcf.Model.homogeneous" `Quick
            test_uniform_matches_model_homogeneous;
          Alcotest.test_case "p_hn threads through" `Quick test_p_hn_matches_model;
          (* The name predates the move of the per-node Picard iteration
             from Dcf.Model.solve into test/reference_solver.ml. *)
          Alcotest.test_case "payoffs vs Dcf.Model.solve" `Quick
            test_payoffs_match_reference;
        ] );
      ( "permutation invariance",
        [
          QCheck_alcotest.to_alcotest test_dcf_solve_profile_permutation_invariant;
          QCheck_alcotest.to_alcotest test_oracle_permutation_invariant;
        ] );
      ( "sim backends",
        [
          Alcotest.test_case "deterministic under replay" `Quick
            test_sim_backend_deterministic;
          Alcotest.test_case "exactly symmetric across permutations" `Quick
            test_sim_backend_permutation_invariant;
          Alcotest.test_case "spatial memo replays bit-identically" `Quick
            test_sim_spatial_memo_bit_identity;
          Alcotest.test_case "agrees loosely with the model" `Quick
            test_sim_backend_sane_payoffs;
        ] );
      ("validation", [ Alcotest.test_case "arguments" `Quick test_validation ]);
      ( "non-convergence",
        [
          Alcotest.test_case "refused and not memoized" `Quick
            test_nonconverged_refused_and_not_memoized;
          Alcotest.test_case "never persisted" `Quick
            test_nonconverged_never_persisted;
          QCheck_alcotest.to_alcotest test_nonconverged_surfaces_at_every_layer;
        ] );
      ( "batch",
        [
          Alcotest.test_case "errors isolated per profile" `Quick
            test_batch_outcome_isolates_failures;
          Alcotest.test_case "agrees with unbatched" `Quick
            test_batch_agrees_with_unbatched;
        ] );
      ( "search",
        [
          Alcotest.test_case "stddev 0 on an exact oracle" `Quick
            test_search_stddev_zero_on_exact_oracle;
          Alcotest.test_case "stddev > 0 under noise" `Quick
            test_search_stddev_positive_under_noise;
        ] );
    ]
