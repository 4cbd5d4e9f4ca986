type solution = {
  taus : float array;
  ps : float array;
  iterations : int;
  converged : bool;
}

type algo = Newton | Picard

type class_solution = {
  class_pairs : (float * float) list;
  iterations : int;
  converged : bool;
}

let solve_homogeneous ?(telemetry = Telemetry.Registry.default) ?iterations
    ?guess ?(tol = 1e-14) (params : Params.t) ~n ~w =
  if n < 1 then invalid_arg "Solver.solve_homogeneous: need n >= 1";
  if w < 1 then invalid_arg "Solver.solve_homogeneous: window must be >= 1";
  let m = params.max_backoff_stage in
  let report iters =
    (match iterations with Some r -> r := iters | None -> ());
    Telemetry.Registry.emit telemetry "solver_convergence" (fun () ->
        [
          ("method", Telemetry.Jsonx.String "brent");
          ("n", Telemetry.Jsonx.Int n);
          ("w", Telemetry.Jsonx.Int w);
          ("tol", Telemetry.Jsonx.Float tol);
          ("iterations", Telemetry.Jsonx.Int iters);
          ("converged", Telemetry.Jsonx.Bool true);
        ])
  in
  if n = 1 then begin
    report 0;
    (Bianchi.tau_of_p ~w ~m 0., 0.)
  end
  else begin
    (* Defect h(τ) = τ − τ_model(p(τ)): negative at τ→0 and positive at
       τ = 1, with a single crossing (uniqueness per Bianchi). *)
    let p_of_tau tau = 1. -. ((1. -. tau) ** float_of_int (n - 1)) in
    let defect tau = tau -. Bianchi.tau_of_p ~w ~m (p_of_tau tau) in
    let eps = 1e-15 in
    let iters = ref 0 in
    (* Warm start: a neighbouring solution's τ narrows the Brent bracket
       to [g/2, 2g] when that interval still straddles the sign change;
       otherwise fall back to the full interval.  The root found is the
       same crossing either way (tolerance-level, not bit-level —
       callers that need bit-stability must not pass a guess). *)
    let lo, hi =
      match guess with
      | Some g when g > 0. && g < 1. ->
          let lo = Float.max eps (g /. 2.) and hi = Float.min 1. (g *. 2.) in
          if defect lo < 0. && defect hi > 0. then (lo, hi) else (eps, 1.)
      | _ -> (eps, 1.)
    in
    let tau = Numerics.Roots.brent ~iterations:iters ~tol defect lo hi in
    report !iters;
    (tau, p_of_tau tau)
  end

(* ---------------------------------------------------------------- *)
(* Class-space fixed points: Newton/Picard machinery.                *)
(* ---------------------------------------------------------------- *)

(* x^k for the small integer class counts of the hot loops.  The k ≤ 1
   cases bypass [( ** )] — IEEE pow pins pow(x, 0) = 1 and pow(x, 1) = x
   exactly, so the fast path is bit-identical to the pow the pre-Newton
   solver called, while skipping a libm call per class per iteration
   (singleton classes dominate heterogeneous sweeps). *)
let powk x k =
  if k = 0 then 1.
  else if k = 1 then x
  else x ** float_of_int k

(* Per-class collision probabilities at an iterate: Π over everyone,
   then divide out one copy of the own class.  The τ_j ≥ 1 branch
   recomputes the product excluding one member to avoid 0/0; it is the
   same arithmetic the pre-Newton solver performed, kept bit-identical
   because the degenerate conformance group pins this path. *)
let class_ps ~ks taus =
  let c = Array.length taus in
  let product = ref 1. in
  for j = 0 to c - 1 do
    product := !product *. powk (1. -. taus.(j)) ks.(j)
  done;
  Array.init c (fun j ->
      let others =
        if taus.(j) >= 1. then begin
          let rest = ref (powk (1. -. taus.(j)) (ks.(j) - 1)) in
          for j' = 0 to c - 1 do
            if j' <> j then
              rest := !rest *. powk (1. -. taus.(j')) ks.(j')
          done;
          !rest
        end
        else !product /. (1. -. taus.(j))
      in
      Prelude.Util.clamp ~lo:0. ~hi:1. (1. -. others))

(* Newton step for the class-space map g_j(τ) = φ_j(p_j(τ)), exploiting
   the rank-one structure of the Jacobian.  With O_j = Π_l(1−τ_l)^{k_l}
   / (1−τ_j) and p_j = 1 − O_j,

      ∂p_j/∂τ_i = (k_i − δ_ij)·O_j/(1−τ_i)
      J_ji = φ'_j(p_j)·(k_i − δ_ij)·O_j/(1−τ_i) = u_j·v_i − δ_ij·u_j/(1−τ_j)

   with u_j = φ'_j(p_j)·O_j and v_i = k_i/(1−τ_i).  The Newton system
   (I − J)·δ = defect is therefore (D − u·vᵀ)·δ = defect with
   D = diag(1 + u_j/(1−τ_j)), solved in O(c) by Sherman–Morrison:

      δ = D⁻¹d + D⁻¹u·(vᵀD⁻¹d)/(1 − vᵀD⁻¹u).

   φ_j(p) = (1−p)^a·τB(w, p), so φ'_j = (1−p)^a·τB' − a·(1−p)^{a−1}·τB,
   with τB' in its τ form ({!Bianchi.dtau_dp_at_tau}).  At a = 0 the map
   value is τB itself, so φ' is the τ form at φ directly — a branch, not a
   closure, so CW-only classes pay nothing for the AIFS term.
   Returns [None] near the τ = 1 boundary (where the product shortcut and
   the derivative both degenerate), on a near-singular diagonal or
   denominator, and on any non-finite intermediate — the caller then
   takes one damped Picard sweep instead. *)
let rank_one_newton_step ~m ~(ss : Strategy_space.t array) ~ks taus defect =
  let c = Array.length taus in
  let usable = ref true in
  for j = 0 to c - 1 do
    if not (Float.is_finite taus.(j)) || taus.(j) >= 1. then usable := false
  done;
  if not !usable then None
  else begin
    let product = ref 1. in
    for j = 0 to c - 1 do
      product := !product *. powk (1. -. taus.(j)) ks.(j)
    done;
    (* Single fused pass: the Sherman–Morrison dot products v·D⁻¹d and
       v·D⁻¹u accumulate alongside the per-class diagonal solves, so the
       step costs two array writes and no temporary beyond them. *)
    let d_inv_defect = Array.make c 0. in
    let d_inv_u = Array.make c 0. in
    try
      let v_dot_d = ref 0. and v_dot_u = ref 0. in
      for j = 0 to c - 1 do
        let one_m = 1. -. taus.(j) in
        let o_j = !product /. one_m in
        let p_j = Prelude.Util.clamp ~lo:0. ~hi:1. (1. -. o_j) in
        (* The map value at p_j is x_j + defect_j by construction (up to
           one rounding), which lets φ' reuse it instead of re-deriving
           τB(w, p_j) — a derivative-only shortcut, never a τ result. *)
        let phi_j = taus.(j) +. defect.(j) in
        let w = ss.(j).cw and a = ss.(j).aifs in
        let dphi =
          if a = 0 then Bianchi.dtau_dp_at_tau ~w ~m ~tau:phi_j p_j
          else begin
            (* The τ form needs the bare τB back out of the map value;
               near p = 1 the eligibility factor underflows and τB is
               re-derived directly instead. *)
            let elig = powk (1. -. p_j) a in
            let tau_b =
              if elig > 1e-300 then phi_j /. elig
              else Bianchi.tau_of_p ~w ~m p_j
            in
            let d = Bianchi.dtau_dp_at_tau ~w ~m ~tau:tau_b p_j in
            let elig' = float_of_int a *. powk (1. -. p_j) (a - 1) in
            (elig *. d) -. (elig' *. tau_b)
          end
        in
        let u_j = dphi *. o_j in
        let d_j = 1. +. (u_j /. one_m) in
        if (not (Float.is_finite d_j)) || Float.abs d_j < 1e-12 then
          raise Exit;
        let did = defect.(j) /. d_j in
        let diu = u_j /. d_j in
        d_inv_defect.(j) <- did;
        d_inv_u.(j) <- diu;
        let v_j = float_of_int ks.(j) /. one_m in
        v_dot_d := !v_dot_d +. (v_j *. did);
        v_dot_u := !v_dot_u +. (v_j *. diu)
      done;
      let denom = 1. -. !v_dot_u in
      if (not (Float.is_finite denom)) || Float.abs denom < 1e-12 then
        raise Exit;
      let scale = !v_dot_d /. denom in
      let delta = d_inv_defect in
      for j = 0 to c - 1 do
        delta.(j) <- delta.(j) +. (d_inv_u.(j) *. scale)
      done;
      Some delta
    with Exit -> None
  end

let run_class_fixed_point ?telemetry ~algo ~tol ~max_iter ~step ~newton_step x0
    =
  match algo with
  | Picard ->
      let o =
        Numerics.Fixed_point.solve ?telemetry ~damping:0.5 ~tol ~max_iter step
          x0
      in
      (o.value, o.iterations, o.converged)
  | Newton ->
      let o =
        Numerics.Newton.solve ?telemetry ~damping:0.5 ~tol ~max_iter ~lo:0.
          ~hi:1. ~step:newton_step step x0
      in
      (o.value, o.iterations, o.converged)

(* Cold-start seed for the Newton path: pool the whole network into one
   homogeneous pseudo-class (count-weighted mean window) and Brent-solve
   its scalar fixed point to 1e-6, then seed every class at its own
   Bianchi response to the pooled collision probability.  That lands the
   iterate 2–3 decades closer to the solution than the no-collision
   2/(W+1) start and typically saves one or two quadratic steps — a
   material fraction of a six-iteration solve.  The Picard path keeps the
   legacy start untouched: it *is* the pre-Newton solver, bit for bit.
   Returns [None] (caller falls back to 2/(W+1)) on trivial networks or
   when the scalar proxy degenerates. *)
let newton_cold_x0 ?telemetry (params : Params.t) ~ws ~ks =
  let c = Array.length ws in
  let n_total = Array.fold_left ( + ) 0 ks in
  if n_total < 2 then None
  else begin
    let wsum = ref 0 in
    for j = 0 to c - 1 do
      wsum := !wsum + (ws.(j) * ks.(j))
    done;
    let mean_w = max 1 (!wsum / n_total) in
    match solve_homogeneous ?telemetry ~tol:1e-6 params ~n:n_total ~w:mean_w with
    | exception _ -> None
    | _, p_star ->
        if p_star > 0. && p_star < 1. then
          Some
            (Array.init c (fun j ->
                 Bianchi.tau_of_p ~w:ws.(j) ~m:params.max_backoff_stage p_star))
        else None
  end

(* AIFS enters the coupled system through an eligibility factor: a node
   deferring a extra slots after every busy period can only start in a
   slot if none of the preceding a slots was busy for it, which in the
   mean-field model happens with probability (1 − p)^a.  Its *effective*
   per-slot transmission probability is therefore
   τ' = (1 − p)^a · τ_bianchi(W, p), and it is τ' that other nodes see
   when computing their collision probabilities.  TXOP and rate do not
   change the contention fixed point (they change channel occupancy and
   payoff, priced downstream).  At a = 0 the map is Bianchi's eq. 2
   verbatim — no multiplication by the factor — so CW-only classes solve
   the paper's coupled fixed point with its own arithmetic. *)
let solve_classes ?telemetry ?iterations ?tau_hint ?(tol = 1e-14)
    ?(algo = Newton) ?(max_iter = 50_000) (params : Params.t) classes =
  if classes = [] then invalid_arg "Solver.solve_classes: no classes";
  List.iter
    (fun ((s : Strategy_space.t), k) ->
      (match Strategy_space.validate s with
      | Ok () -> ()
      | Error e -> invalid_arg ("Solver.solve_classes: " ^ e));
      if k < 1 then invalid_arg "Solver.solve_classes: count must be >= 1")
    classes;
  let m = params.max_backoff_stage in
  let ss = Array.of_list (List.map fst classes) in
  let ks = Array.of_list (List.map snd classes) in
  let c = Array.length ss in
  let step taus =
    let ps = class_ps ~ks taus in
    Array.init c (fun j ->
        let s = ss.(j) in
        let p = ps.(j) in
        let tau = Bianchi.tau_of_p ~w:s.Strategy_space.cw ~m p in
        if s.Strategy_space.aifs = 0 then tau
        else powk (1. -. p) s.Strategy_space.aifs *. tau)
  in
  (* Warm start: [tau_hint s] may seed a class with a τ from a
     neighbouring solved problem; classes without a hint start at the
     no-collision value 2/(W+1).  Both iterations contract to the same
     fixed point from any interior start (a property the test suite
     probes), so a hint changes the path, not the destination — at
     tolerance level, which is why warm-started answers carry a
     conformance anchor rather than a bit-identity claim.  The cold Newton
     seed pools on the CW knob only: AIFS shapes the map, not the seed. *)
  let default_x0 (s : Strategy_space.t) = 2. /. float_of_int (s.cw + 1) in
  let x0 =
    match (tau_hint, algo) with
    | None, Newton -> (
        let cws = Array.map (fun (s : Strategy_space.t) -> s.cw) ss in
        match newton_cold_x0 ?telemetry params ~ws:cws ~ks with
        | Some x0 -> x0
        | None -> Array.map default_x0 ss)
    | None, Picard -> Array.map default_x0 ss
    | Some hint, _ ->
        Array.map
          (fun s ->
            match hint s with
            | Some g when g > 0. && g < 1. -> g
            | _ -> default_x0 s)
          ss
  in
  let taus, iters, converged =
    run_class_fixed_point ?telemetry ~algo ~tol ~max_iter ~step
      ~newton_step:(rank_one_newton_step ~m ~ss ~ks)
      x0
  in
  (match iterations with Some r -> r := iters | None -> ());
  let ps = class_ps ~ks taus in
  {
    class_pairs = List.init c (fun j -> (taus.(j), ps.(j)));
    iterations = iters;
    converged;
  }

let solve_profile ?telemetry ?iterations ?tau_hint ?tol ?algo ?max_iter
    (params : Params.t) (strategies : Strategy_space.t array) =
  let n = Array.length strategies in
  if n = 0 then invalid_arg "Solver.solve_profile: empty network";
  (* Group equal strategies into classes: nodes sharing a strategy share
     (τ, p) by symmetry, so the fixed point collapses to one dimension per
     distinct strategy — a 100-node profile with 3 distinct strategies
     costs the same as n = 3.  Classes come out in canonical
     {!Strategy_space.compare} order (ascending window on CW-only
     profiles), so any permutation of the profile solves the identical
     class problem. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j -> Strategy_space.compare strategies.(i) strategies.(j))
    order;
  let class_of = Array.make n 0 in
  let classes = ref [] and c = ref 0 in
  Array.iter
    (fun i ->
      let s = strategies.(i) in
      (match !classes with
      | (s', k) :: rest when Strategy_space.equal s s' ->
          classes := (s', k + 1) :: rest
      | _ ->
          classes := (s, 1) :: !classes;
          incr c);
      class_of.(i) <- !c - 1)
    order;
  let solved =
    solve_classes ?telemetry ?iterations ?tau_hint ?tol ?algo ?max_iter params
      (List.rev !classes)
  in
  let pairs = Array.of_list solved.class_pairs in
  {
    taus = Array.map (fun j -> fst pairs.(j)) class_of;
    ps = Array.map (fun j -> snd pairs.(j)) class_of;
    iterations = solved.iterations;
    converged = solved.converged;
  }
