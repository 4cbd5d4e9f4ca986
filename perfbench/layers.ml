(* Per-layer spans recorded from the benchmark's own calls into each
   layer's public functions.

   The spans go to a private recorder, never to [Telemetry.Recorder.default]:
   the program's own in-library instrumentation stays off, so a traced run
   times exactly the calls the benchmark makes and nothing the program
   would record by itself.  With tracing off, [span] is one branch and a
   direct call, so the end-to-end run and the traced run execute the same
   code. *)

let recorder = Telemetry.Recorder.create ~capacity:(1 lsl 19) ()

let on () = Telemetry.Recorder.enabled recorder

let set_on b = Telemetry.Recorder.set_enabled recorder b

(* Intern at set-up: interning takes a lock. *)
let name s = Telemetry.Recorder.intern recorder s

let span nid f =
  if not (on ()) then f ()
  else
    let sid = Telemetry.Recorder.begin_span recorder nid 0 0 in
    match f () with
    | v ->
        Telemetry.Recorder.end_span recorder nid sid;
        v
    | exception e ->
        Telemetry.Recorder.end_span recorder nid sid;
        raise e

(* Drain the spans recorded since the last drain, write them as a
   MACTRC01 trace file (readable by [macgame trace summary|export]) and
   return their self-time summary. *)
let collect ~path =
  let dump = Telemetry.Recorder.drain ~reset:true recorder in
  if dump.dropped > 0 then
    Printf.eprintf "perfbench: %d trace records overwritten; raise the capacity\n"
      dump.dropped;
  Telemetry.Trace_file.write path dump;
  Telemetry.Trace_view.summarize dump

let stat (summary : Telemetry.Trace_view.summary) span_name =
  List.find_opt
    (fun (s : Telemetry.Trace_view.span_stat) -> s.name = span_name)
    summary.spans

(* Mean self time per call, in seconds; 0 when the span never ran. *)
let self_mean summary span_name =
  match stat summary span_name with
  | Some s when s.count > 0 -> s.self_s /. float_of_int s.count
  | _ -> 0.

let self_total summary span_name =
  match stat summary span_name with Some s -> s.self_s | None -> 0.

let count summary span_name =
  match stat summary span_name with Some s -> s.count | None -> 0
