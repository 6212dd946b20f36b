(* Clocks, memory readings and timing helpers shared by the workloads. *)

let now_ns = Span.now_ns
let now_s () = float_of_int (now_ns ()) /. 1e9

(* [ms f] runs [f] and returns its wall time in milliseconds. *)
let ms f =
  let t0 = now_ns () in
  let v = f () in
  (float_of_int (now_ns () - t0) /. 1e6, v)

let time_ms f = fst (ms f)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Exact minor-heap words allocated by [calls] runs of [f], per call. *)
let words_per_call ~calls f =
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int calls

(* [per_call ~scale name ~calls ~reps f] records under [name] [reps]
   samples of the mean wall time of one call of [f] in nanoseconds
   divided by [scale], each from a batch of [calls] calls wrapped in one
   span named [name]. *)
let per_call ~scale name ~calls ~reps f =
  for _ = 1 to reps do
    let t0 = now_ns () in
    Span.run name (fun () ->
        for _ = 1 to calls do
          f ()
        done);
    let dt = float_of_int (now_ns () - t0) in
    Record.layer_sample name (dt /. float_of_int calls /. scale)
  done

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Seeds of the workload's components, derived by key so adding a
   component never changes the inputs of the others. *)
let derive_seed ~seed key =
  Rbb_prng.Stream.seed_of_key ~master:(Int64.of_int seed) ~key

let rng ~seed key = Rbb_prng.Rng.create ~seed:(derive_seed ~seed key) ()
