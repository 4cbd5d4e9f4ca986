type solved = {
  params : Params.t;
  cws : int array;
  taus : float array;
  ps : float array;
  metrics : Metrics.t;
  utilities : float array;
  converged : bool;
}

let price ?p_hn params cws (solution : Solver.solution) =
  let metrics = Metrics.of_solution params solution in
  let utilities = Utility.rates ?p_hn params ~taus:solution.taus ~ps:solution.ps in
  {
    params;
    cws;
    taus = solution.taus;
    ps = solution.ps;
    metrics;
    utilities;
    converged = solution.converged;
  }

let solve_profile ?p_hn ?iterations ?max_iter (params : Params.t) cws =
  price ?p_hn params cws
    (Solver.solve_profile ?iterations ?max_iter params
       (Array.map Strategy_space.of_cw cws))

type strategy_solved = {
  params : Params.t;
  strategies : Strategy_space.t array;
  taus : float array;
  ps : float array;
  slot_time : float;
  utilities : float array;
  goodputs : float array;
  converged : bool;
}

(* One class solve for every profile; only the pricing branches.  The
   degenerate branch prices through [Metrics.of_taus] exactly as
   [solve_profile] does, so the CW-only subspace keeps its bits: the
   general branch's [Hetero.of_profile] sums collision time with
   different arithmetic. *)
let solve_strategies ?p_hn ?iterations ?tau_hint ?max_iter (params : Params.t)
    strategies =
  let n = Array.length strategies in
  if n = 0 then invalid_arg "Model.solve_strategies: empty network";
  Array.iter
    (fun s ->
      match Strategy_space.validate s with
      | Ok () -> ()
      | Error e -> invalid_arg ("Model.solve_strategies: " ^ e))
    strategies;
  let solution =
    Solver.solve_profile ?iterations ?tau_hint ?max_iter params strategies
  in
  if Array.for_all Strategy_space.is_degenerate strategies then begin
    let s =
      price ?p_hn params
        (Array.map (fun (s : Strategy_space.t) -> s.cw) strategies)
        solution
    in
    {
      params;
      strategies;
      taus = s.taus;
      ps = s.ps;
      slot_time = s.metrics.slot_time;
      utilities = s.utilities;
      goodputs = s.metrics.per_node_throughput;
      converged = s.converged;
    }
  end
  else begin
    let taus = solution.taus and ps = solution.ps in
    let base = Timing.of_params params in
    let times = Array.map (Strategy_space.times params ~base) strategies in
    let ts = Array.map (fun (t : Strategy_space.times) -> t.ts) times in
    let tc = Array.map (fun (t : Strategy_space.times) -> t.tc) times in
    (* Goodput credits the whole burst's payload to the one access. *)
    let payload_time =
      Array.init n (fun i ->
          float_of_int strategies.(i).Strategy_space.txop_frames
          *. times.(i).Strategy_space.payload)
    in
    let hetero =
      Hetero.of_profile ~sigma:params.sigma ~taus ~ts ~tc ~payload_time
    in
    let utilities =
      Array.init n (fun i ->
          Utility.rate_of_strategy ?p_hn params ~slot_time:hetero.slot_time
            ~tau:taus.(i) ~p:ps.(i)
            ~frames:strategies.(i).Strategy_space.txop_frames)
    in
    {
      params;
      strategies;
      taus;
      ps;
      slot_time = hetero.slot_time;
      utilities;
      goodputs = hetero.per_node_goodput;
      converged = solution.converged;
    }
  end

type node_view = {
  tau : float;
  p : float;
  utility : float;
  throughput : float;
  slot_time : float;
}

let homogeneous ?p_hn (params : Params.t) ~n ~w =
  let tau, p = Solver.solve_homogeneous params ~n ~w in
  let metrics = Metrics.of_taus params (Array.make n tau) in
  {
    tau;
    p;
    utility =
      Utility.rate_of_node ?p_hn params ~slot_time:metrics.slot_time ~tau ~p;
    throughput = metrics.per_node_throughput.(0);
    slot_time = metrics.slot_time;
  }

