(* The load side of the serving workloads: spawn the real [macgame serve
   --socket] daemon in its own process and drive it over the Unix socket
   from this single process — one thread, at most [nproc] connections. *)

let now = Unix.gettimeofday

type daemon = { pid : int; socket : string }

(* Daemons spawned and not yet stopped. *)
let live = ref []

let connect_once socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_affinity : int array -> bool = "perfbench_set_affinity"

(* With two CPUs or more, the generator runs on one and the daemon on
   another, and the generator busy-polls instead of sleeping: a sleeping
   generator on a virtual machine adds its own wake-up delay, which varies
   with the host's load, to every measured request.  [None] (one CPU):
   nothing is pinned and the generator sleeps. *)
let placement =
  lazy
    (let cpus = allowed_cpus () in
     if Array.length cpus >= 2 then Some (cpus, [| cpus.(0) |], [| cpus.(1) |])
     else None)

let polling () = Option.is_some (Lazy.force placement)

(* Give the whole host back (the in-process workloads use every core). *)
let release () =
  match Lazy.force placement with
  | Some (all, _, _) -> ignore (set_affinity all)
  | None -> ()

(* Spawn the daemon (on its own CPU when there is one).  Its stderr goes
   to [log] so a crash leaves a trace in the work directory. *)
let spawn ~cli ~socket ~log ?store () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ cli; "serve"; "--socket"; socket ]
    @ match store with Some dir -> [ "--store"; dir ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let spawn () = Unix.create_process cli (Array.of_list args) null null err in
  let pid =
    match Lazy.force placement with
    | None -> spawn ()
    | Some (_, mine, daemon) ->
        ignore (set_affinity daemon);
        let pid = spawn () in
        ignore (set_affinity mine);
        pid
  in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  { pid; socket }

(* Connect once the daemon accepts connections. *)
let wait_ready ?(timeout = 60.) d =
  let deadline = now () +. timeout in
  let rec go () =
    match connect_once d.socket with
    | Some fd -> fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "serve daemon exited before accepting connections");
        if now () > deadline then failwith "serve daemon did not come up";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Peak resident set of the daemon (VmHWM), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  live := List.filter (( <> ) pid) !live

(* No daemon outlives the benchmark, whichever way it exits. *)
let () = at_exit (fun () -> List.iter kill_and_reap !live)

(* A write to a daemon that has died is a connection error of the request,
   not the end of the benchmark. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let stop d =
  kill_and_reap d.pid;
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

(* {1 Closed loop} *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let conn_of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One caller waiting for each reply: send, block for the answer.  Returns
   the reply (or the connection error) and the round trip in seconds. *)
exception Timeout

(* Wait until [fd] is readable: busy-polling when the generator has a CPU
   of its own, sleeping otherwise. *)
let wait_readable ~deadline fd =
  let timeout () = if polling () then 0. else Float.max 0. (deadline -. now ()) in
  let rec go () =
    if now () > deadline then raise Timeout;
    match Unix.select [ fd ] [] [] (timeout ()) with
    | [], _, _ -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let call_timeout_s = 30.

let call c line =
  let t0 = now () in
  match
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    wait_readable ~deadline:(t0 +. call_timeout_s) c.fd;
    input_line c.ic
  with
  | reply -> (Ok reply, now () -. t0)
  | exception Timeout -> (Error "timeout", now () -. t0)
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
      (Error "connection", now () -. t0)

(* {1 Reply streams}

   The open loop and the saturation loop below give request i of a loop
   the id [first + i], ids growing across the whole run, and match each
   reply to its request by the id it echoes.  A reply to an earlier loop (one still in flight when that
   loop gave up on it, and already counted there as unanswered) is then
   dropped instead of being taken for an answer to this one. *)

(* Hand every complete line of [chunk.[0 .. len-1]] to [f], keeping the
   unfinished tail in [partial]. *)
let split_lines partial chunk len f =
  let start = ref 0 in
  for j = 0 to len - 1 do
    if Bytes.get chunk j = '\n' then begin
      Buffer.add_subbytes partial chunk !start (j - !start);
      f (Buffer.contents partial);
      Buffer.clear partial;
      start := j + 1
    end
  done;
  Buffer.add_subbytes partial chunk !start (len - !start)

(* The index within its loop of the request a reply answers, if this loop
   sent it and has not had its answer yet; marks it answered. *)
let own_reply ~first ~answered line =
  match Benchkit.reply_id line with
  | Some id ->
      let i = id - first in
      if i >= 0 && i < Bytes.length answered && Bytes.get answered i = '\000'
      then begin
        Bytes.set answered i '\001';
        Some i
      end
      else None
  | None -> None

(* {1 Open loop} *)

type open_result = {
  latency_us : float array;  (** per request, from its scheduled send; nan = no reply *)
  lag_us : float array;  (** how late each request left the generator *)
  unanswered : int;  (** requests with no reply by the drain deadline *)
  broken : bool;  (** a connection failed mid-run *)
}

type oconn = {
  ofd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  mutable inflight : int;
  partial : Buffer.t;
}

(* Send [lines] (request i carries id [first + i]) on a fixed schedule —
   request i is due at t0 + i/rate, spread round-robin over [conns] —
   regardless of how fast replies come back, reading replies as they
   arrive and handing each to [on_reply i] (replies are not retained: a
   growing heap of live strings would make the generator's own collector
   stall it).  Latency is measured from the due time, so a stall also
   charges the requests queued behind it.  Replies still missing
   [drain_timeout] seconds after the last send are unanswered. *)
let open_loop ~conns ~rate ?(drain_timeout = call_timeout_s) ~first ~on_reply
    lines =
  let spin = polling () in
  let total = Array.length lines in
  let k = Array.length conns in
  let oc =
    Array.map
      (fun fd ->
        Unix.set_nonblock fd;
        {
          ofd = fd;
          out = Buffer.create 65536;
          out_off = 0;
          inflight = 0;
          partial = Buffer.create 4096;
        })
      conns
  in
  let latency_us = Array.make total nan in
  let lag_us = Array.make total 0. in
  let due = Array.make total 0. in
  let answered = Bytes.make total '\000' in
  let chunk = Bytes.create 65536 in
  let t0 = now () +. 0.002 in
  let window = float_of_int total /. rate in
  let sent = ref 0 and received = ref 0 in
  let deadline = t0 +. window +. drain_timeout in
  let deliver c t line =
    match own_reply ~first ~answered line with
    | Some i ->
        latency_us.(i) <- (t -. due.(i)) *. 1e6;
        on_reply i line;
        c.inflight <- c.inflight - 1;
        incr received
    | None -> ()
  in
  let read_from c =
    match Unix.read c.ofd chunk 0 (Bytes.length chunk) with
    | 0 -> raise End_of_file
    | len -> split_lines c.partial chunk len (deliver c (now ()))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let write_to c =
    let pending = Buffer.length c.out - c.out_off in
    if pending > 0 then
      match
        Unix.single_write_substring c.ofd (Buffer.contents c.out) c.out_off
          pending
      with
      | n ->
          c.out_off <- c.out_off + n;
          if c.out_off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
  in
  let broken = ref false in
  (try
     while (!sent < total || !received < total) && now () < deadline do
       let t = now () in
       while !sent < total && t0 +. (float_of_int !sent /. rate) <= t do
         let i = !sent in
         due.(i) <- t0 +. (float_of_int i /. rate);
         lag_us.(i) <- (t -. due.(i)) *. 1e6;
         let c = oc.(i mod k) in
         Buffer.add_string c.out lines.(i);
         Buffer.add_char c.out '\n';
         c.inflight <- c.inflight + 1;
         incr sent
       done;
       Array.iter write_to oc;
       let wait =
         if spin then 0.
         else if !sent < total then
           Float.max 0. (t0 +. (float_of_int !sent /. rate) -. now ())
         else 0.05
       in
       let readers =
         Array.to_list oc
         |> List.filter (fun c -> c.inflight > 0)
         |> List.map (fun c -> c.ofd)
       in
       let writers =
         Array.to_list oc
         |> List.filter (fun c -> Buffer.length c.out > c.out_off)
         |> List.map (fun c -> c.ofd)
       in
       let r, w, _ =
         try Unix.select readers writers [] wait
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd -> Array.iter (fun c -> if c.ofd = fd then read_from c) oc)
         r;
       List.iter
         (fun fd -> Array.iter (fun c -> if c.ofd = fd then write_to c) oc)
         w
     done
   with End_of_file | Unix.Unix_error _ -> broken := true);
  Array.iter (fun fd -> Unix.clear_nonblock fd) conns;
  { latency_us; lag_us; unanswered = total - !received; broken = !broken }

(* {1 Saturation} *)

(* Keep [window] requests outstanding on every connection for [seconds]:
   each reply releases the next request.  The completed rate is the
   service's throughput at saturation; unlike a latency limit it degrades
   in proportion to a host stall instead of failing outright.  Request i
   is [next_line i] and carries id [first + i]; every reply, including
   those still in flight at the deadline, goes to [on_reply i].  Returns
   the replies completed per second within the window, the number of
   requests sent and the number still unanswered [call_timeout_s] after
   the window closed. *)
type saturation = {
  rate : float;
  sent : int;
  missing : int;  (** requests never answered *)
  lost : bool;  (** a connection failed *)
}

let saturate ~conns ~window ~seconds ~first ~next_line ~on_reply =
  let k = Array.length conns in
  let partial = Array.init k (fun _ -> Buffer.create 4096) in
  let chunk = Bytes.create 65536 in
  let outstanding = Array.make k 0 in
  let sent = ref 0 and completed = ref 0 and received = ref 0 in
  (* Sized for every request the window could send at 10^6 replies/s. *)
  let answered =
    Bytes.make (int_of_float (1e6 *. seconds) + (k * window)) '\000'
  in
  let send c n =
    let b = Buffer.create 4096 in
    for _ = 1 to n do
      Buffer.add_string b (next_line !sent);
      Buffer.add_char b '\n';
      incr sent
    done;
    let s = Buffer.contents b in
    let rec write off =
      if off < String.length s then
        write (off + Unix.write_substring conns.(c) s off (String.length s - off))
    in
    write 0;
    outstanding.(c) <- outstanding.(c) + n
  in
  (* Read what connection [c] has and hand over this loop's replies. *)
  let receive c =
    let len = Unix.read conns.(c) chunk 0 (Bytes.length chunk) in
    if len = 0 then raise End_of_file;
    let got = ref 0 in
    split_lines partial.(c) chunk len (fun line ->
        match own_reply ~first ~answered line with
        | Some i ->
            on_reply i line;
            incr received;
            incr got
        | None -> ());
    outstanding.(c) <- outstanding.(c) - !got;
    !got
  in
  let index fd =
    let c = ref 0 in
    Array.iteri (fun i x -> if x = fd then c := i) conns;
    !c
  in
  let pump ~timeout f =
    let busy =
      List.filter (fun fd -> outstanding.(index fd) > 0) (Array.to_list conns)
    in
    let r, _, _ =
      try Unix.select busy [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> f (index fd)) r
  in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rate = ref 0. in
  let lost =
    try
      Array.iteri (fun c _ -> send c window) conns;
      while now () < deadline do
        pump ~timeout:0.05 (fun c ->
            let got = receive c in
            completed := !completed + got;
            if got > 0 && now () < deadline && !sent + got <= Bytes.length answered
            then send c got)
      done;
      rate := float_of_int !completed /. (now () -. t0);
      let drain_deadline = now () +. call_timeout_s in
      while Array.exists (fun o -> o > 0) outstanding && now () < drain_deadline do
        pump ~timeout:0.05 (fun c -> ignore (receive c))
      done;
      false
    with End_of_file | Unix.Unix_error _ -> true
  in
  { rate = !rate; sent = !sent; missing = !sent - !received; lost }
