(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent) with times in monotonic
   nanoseconds.  Spans are appended to growable arrays and only leave
   memory when [write] dumps them at the end of the run.  With tracing
   off [run] is a single branch around the call, so the untraced run
   measures the same code path minus the recording. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable enabled : bool;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable len : int;
  (* The open spans, innermost last; an int array keeps [run] free of
     list allocation. *)
  mutable stack : int array;
  mutable depth : int;
}

let state =
  {
    enabled = false;
    names = Array.make 1024 "";
    starts = Array.make 1024 0;
    stops = Array.make 1024 0;
    parents = Array.make 1024 (-1);
    len = 0;
    stack = Array.make 64 0;
    depth = 0;
  }

let set_enabled b = state.enabled <- b
let enabled () = state.enabled

let grow () =
  let cap = 2 * Array.length state.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 state.len;
    b
  in
  state.names <- extend state.names "";
  state.starts <- extend state.starts 0;
  state.stops <- extend state.stops 0;
  state.parents <- extend state.parents (-1)

let open_span name =
  if state.len = Array.length state.names then grow ();
  let id = state.len in
  state.len <- id + 1;
  state.names.(id) <- name;
  state.parents.(id) <-
    (if state.depth = 0 then -1 else state.stack.(state.depth - 1));
  if state.depth = Array.length state.stack then
    state.stack <- Array.append state.stack (Array.make state.depth 0);
  state.stack.(state.depth) <- id;
  state.depth <- state.depth + 1;
  state.starts.(id) <- now_ns ();
  id

let close_span id =
  state.stops.(id) <- now_ns ();
  state.depth <- state.depth - 1

let run name f =
  if not state.enabled then f ()
  else
    let id = open_span name in
    match f () with
    | v ->
        close_span id;
        v
    | exception e ->
        close_span id;
        raise e

let write ~path =
  let child = Array.make (max 1 state.len) 0 in
  for i = 0 to state.len - 1 do
    let p = state.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) + (state.stops.(i) - state.starts.(i))
  done;
  let oc = open_out path in
  output_string oc "[";
  for i = 0 to state.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"self_ns\":%d}"
      i state.names.(i) state.starts.(i) state.stops.(i) state.parents.(i)
      (state.stops.(i) - state.starts.(i) - child.(i))
  done;
  output_string oc "]\n";
  close_out oc

