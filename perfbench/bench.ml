(* The repository benchmark's entry point: one workload per run.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH
               [--work DIR] [--nproc K] [--commit ID]

   With --trace 0 it runs workload W with tracing off and ends with the
   end-to-end metrics; with --trace 1 it runs the traced pass of every
   workload (each per-layer metric belongs to one workload, and the result
   line carries them all) and ends with the per-layer metrics.  The last
   line of stdout is the JSON result; a failed correctness check prints
   it with "correct": false and exits 1. *)

module K = Benchkit

let workloads = [ "serve_hot"; "serve_cold"; "spatial_10k"; "paper_repro" ]

let usage =
  "bench.exe --workload {serve_hot|serve_cold|spatial_10k|paper_repro} \
   --seed N --seconds S --trace 0|1 --cli PATH [--work DIR] [--nproc K] \
   [--commit ID]"

let run_e2e env = function
  | "serve_hot" -> W_serve.hot env
  | "serve_cold" -> W_serve.cold env
  | "spatial_10k" -> W_spatial.spatial env
  | "paper_repro" -> W_repro.repro env
  | w -> invalid_arg ("unknown workload " ^ w)

let run_traced env =
  let file w = Env.path env ("trace-" ^ w ^ ".bin") in
  let passes =
    [
      ("serve_hot", fun () -> W_serve.hot_traced env ~trace_file:(file "serve_hot"));
      ("serve_cold", fun () -> W_serve.cold_traced env ~trace_file:(file "serve_cold"));
      ("spatial_10k", fun () -> W_spatial.traced env ~trace_file:(file "spatial_10k"));
      ("paper_repro", fun () -> W_repro.traced env ~trace_file:(file "paper_repro"));
    ]
  in
  List.fold_left
    (fun (phases, metrics) (w, pass) ->
      let p, m = pass () in
      Env.say "  %s (trace dump %s)" w (file w);
      List.iter
        (fun (x : K.metric) -> Env.figure x.name x.value x.unit_ "")
        m;
      (phases @ p, metrics @ m))
    ([], []) passes

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and cli = ref "" and work = ref "_perfbench" in
  let nproc = ref (Domain.recommended_domain_count ()) and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--cli", Arg.Set_string cli, "PATH the built macgame executable");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--nproc", Arg.Set_int nproc, "K cores (connections, workers, shards)");
      ("--commit", Arg.Set_string commit, "ID source revision to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds <= 0.
    || (!trace <> 0 && !trace <> 1)
    || !cli = "" || !nproc < 1
  then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env =
    { Env.seed = !seed; seconds = !seconds; cli = !cli; work = !work; nproc = !nproc }
  in
  Env.say "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s commit=%s"
    !workload !seed !seconds !trace !nproc Sys.ocaml_version !commit;
  let phases, metrics =
    if !trace = 0 then run_e2e env !workload else run_traced env
  in
  List.iter (fun p -> Env.say "  %s" (K.pp_phase p)) phases;
  let attempted, failed = K.totals phases in
  Env.say "  failure share %.6f (%d of %d operations)"
    (K.failure_share ~attempted ~failed) failed attempted;
  let correct = failed = 0 in
  print_endline
    (Telemetry.Jsonx.to_string (K.result_json ~correct ~attempted ~failed metrics));
  exit (if correct then 0 else 1)
