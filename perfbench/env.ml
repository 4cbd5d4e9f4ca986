(* What every workload needs: the run's arguments, a work directory inside
   the checkout, timing and report printing. *)

type t = {
  seed : int;
  seconds : float;  (** measurement budget of the run *)
  cli : string;  (** the built [macgame] executable *)
  work : string;  (** scratch directory for sockets, stores, traces *)
  nproc : int;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let path env name = Filename.concat env.work name

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let fresh_dir env name =
  let p = path env name in
  rm_rf p;
  p

let say fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* One end-to-end figure under its workload-specific name. *)
let figure name value unit_ detail =
  say "  %-28s %12.6g %-7s %s" name value unit_ detail

(* Median and quartiles of a metric's repetitions within this run. *)
let reps name unit_ xs =
  let q1, q2, q3 = Benchkit.quartiles xs in
  figure name q2 unit_
    (Printf.sprintf "median of %d repetitions, quartiles %.6g .. %.6g"
       (Array.length xs) q1 q3)

let self_peak_rss_mb () = Client.peak_rss_mb (Unix.getpid ())
