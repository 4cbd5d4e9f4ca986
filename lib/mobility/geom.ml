type point = { x : float; y : float }

(* Inlined so [within] returns a bool without boxing the distance: the
   spatial core calls it per corruption check. *)
let[@inline] distance_sq a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let distance a b = sqrt (distance_sq a b)

let within ~range a b = distance_sq a b <= range *. range

let move_towards ~from ~goal ~dist =
  let d = distance from goal in
  if d <= dist || d = 0. then goal
  else begin
    let f = dist /. d in
    { x = from.x +. ((goal.x -. from.x) *. f);
      y = from.y +. ((goal.y -. from.y) *. f) }
  end

let random_in rng ~width ~height =
  { x = Prelude.Rng.float rng width; y = Prelude.Rng.float rng height }
