(* The Newton solver core promises to accelerate the class-space fixed
   point, not to move it: Newton and Picard must land on the same (τ, p)
   to ≤1e-10 relative on every problem the stack actually solves.  These
   checks run both algorithms on the 14-point equivalence-grid profiles
   (class-reduced, spanning both access modes and uniform/mixed windows)
   plus a set of multi-knob strategy-class problems exercising the AIFS
   eligibility term of the Jacobian.  Any Newton bug that survives the
   accept-only-contracting-steps guard — a wrong Jacobian sign, a missing
   eligibility product-rule term, a bad Sherman–Morrison denominator —
   shows up here as a relative gap far above 1e-10. *)

let tolerance = 1e-10

let rel_diff a b =
  let scale = Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) /. scale

(* Worst relative discrepancy between two solves, given as (iterations,
   converged, (τ, p) pairs), over every τ and p.  Infinite when either
   solve failed to converge or the shapes disagree — a solver that cannot
   finish both ways has no business passing an equivalence check. *)
let margin_of (_, newton_ok, newton) (_, picard_ok, picard) =
  if not (newton_ok && picard_ok) then infinity
  else if List.length newton <> List.length picard then infinity
  else
    List.fold_left2
      (fun acc (tau_n, p_n) (tau_p, p_p) ->
        Float.max acc (Float.max (rel_diff tau_n tau_p) (rel_diff p_n p_p)))
      0. newton picard
    /. tolerance

let strategy ~cw ~aifs ~txop ~rate =
  { Dcf.Strategy_space.cw; aifs; txop_frames = txop; rate }

(* Multi-knob strategy-class problems: AIFS asymmetry (the eligibility
   term of the Jacobian), TXOP/rate knobs (inert in the fixed point but
   part of the class identity), small windows (strong coupling, where a
   naive undamped Newton would overshoot), and a wide 20-class ladder
   matching the perf kernel's shape. *)
let strategy_problems =
  [
    ( "strategy.aifs_pair",
      [ (strategy ~cw:32 ~aifs:0 ~txop:1 ~rate:1., 3);
        (strategy ~cw:32 ~aifs:2 ~txop:1 ~rate:1., 3) ] );
    ( "strategy.aifs_txop_mix",
      [ (strategy ~cw:16 ~aifs:1 ~txop:3 ~rate:1., 2);
        (strategy ~cw:64 ~aifs:0 ~txop:1 ~rate:2., 5);
        (strategy ~cw:128 ~aifs:3 ~txop:2 ~rate:0.5, 4) ] );
    ( "strategy.small_windows",
      [ (strategy ~cw:2 ~aifs:1 ~txop:1 ~rate:1., 2);
        (strategy ~cw:4 ~aifs:0 ~txop:1 ~rate:1., 3) ] );
    ( "strategy.ladder20",
      List.init 20 (fun i ->
          (strategy ~cw:(64 + (8 * i)) ~aifs:(i mod 3) ~txop:1 ~rate:1., 1))
    );
  ]

(* Run [solve] both ways and grade the gap; [what] names the problem
   size in the detail line. *)
let newton_vs_picard ?telemetry ~id ~what solve =
  let check =
    match (solve Dcf.Solver.Newton, solve Dcf.Solver.Picard) with
    | ((newton_iters, _, _) as newton), ((picard_iters, _, _) as picard) ->
        Check.v ~id ~group:"solver_core" ~margin:(margin_of newton picard)
          ~detail:
            (Printf.sprintf "newton %d iters vs picard %d iters, %s, <=%.0e rel"
               newton_iters picard_iters what tolerance)
          ()
    | exception exn ->
        Check.v ~id ~group:"solver_core" ~margin:infinity
          ~detail:("raised: " ^ Printexc.to_string exn)
          ()
  in
  Check.emit ?telemetry check;
  check

(* Grid profiles go through the profile grouper, exactly as the oracle
   solves them. *)
let grid_check ?telemetry (point : Equivalence.point) =
  newton_vs_picard ?telemetry ~id:("solver_core.grid." ^ point.id)
    ~what:(Printf.sprintf "%d nodes" (Array.length point.profile))
    (fun algo ->
      let s =
        Dcf.Solver.solve_profile ~algo point.params
          (Array.map Dcf.Strategy_space.of_cw point.profile)
      in
      ( s.iterations,
        s.converged,
        Array.to_list (Array.map2 (fun tau p -> (tau, p)) s.taus s.ps) ))

let strategy_check ?telemetry (name, classes) =
  newton_vs_picard ?telemetry ~id:("solver_core." ^ name)
    ~what:(Printf.sprintf "%d classes" (List.length classes))
    (fun algo ->
      let s = Dcf.Solver.solve_classes ~algo Dcf.Params.default classes in
      (s.iterations, s.converged, s.class_pairs))

let checks ?telemetry ~tier () =
  if not (Check.runs_in Check.Fast ~at:tier) then []
  else
    List.map (grid_check ?telemetry) (Equivalence.points ~tier:Check.Full)
    @ List.map (strategy_check ?telemetry) strategy_problems
