(* Independent reference for the class-reduced solver: the unreduced
   per-node damped Picard iteration on the full n-dimensional τ vector.
   It shares no grouping, Newton step or class-space product with
   Dcf.Solver, so agreement between the two is evidence that the class
   reduction and the Newton core are right, not a restatement of them.
   Test-only: no production path runs it. *)

(* p_i = 1 − Π_{j≠i}(1 − τ_j), computed with prefix/suffix products so a
   node with τ_j = 1 (window 1, always transmitting) does not force a
   division by zero. *)
let collision_probabilities taus =
  let n = Array.length taus in
  let prefix = Array.make (n + 1) 1. in
  let suffix = Array.make (n + 1) 1. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) *. (1. -. taus.(i))
  done;
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) *. (1. -. taus.(i))
  done;
  Array.init n (fun i ->
      Prelude.Util.clamp ~lo:0. ~hi:1. (1. -. (prefix.(i) *. suffix.(i + 1))))

(* [solve params cws]: node i uses initial window [cws.(i)]. *)
let solve ?(tol = 1e-13) ?(max_iter = 20_000) (params : Dcf.Params.t) cws :
    Dcf.Solver.solution =
  let m = params.max_backoff_stage in
  let step taus =
    let ps = collision_probabilities taus in
    Array.mapi (fun i p -> Dcf.Bianchi.tau_of_p ~w:cws.(i) ~m p) ps
  in
  let x0 = Array.map (fun w -> 2. /. float_of_int (w + 1)) cws in
  let outcome =
    Numerics.Fixed_point.solve ~damping:0.5 ~tol ~max_iter step x0
  in
  let taus = outcome.value in
  {
    taus;
    ps = collision_probabilities taus;
    iterations = outcome.iterations;
    converged = outcome.converged;
  }

(* Payoff rates of the reference solve, priced like Dcf.Model. *)
let utilities ?p_hn params cws =
  let s = solve params cws in
  Dcf.Utility.rates ?p_hn params ~taus:s.taus ~ps:s.ps
