(* The RBB benchmark program.  Runs one workload for a time budget,
   checks its correctness gates, and writes the raw record (sample
   series, gates, operation counts) for run.py to reduce:

     rbbbench.exe --workload W --seed N --seconds S --trace 0|1
                  --work DIR --rbb PATH --out FILE

   With --trace 1 the workload is measured both untraced and traced
   (alternating within the budget where the workload allows, else half
   the budget each), and the per-layer suite follows, the same on every
   workload: a short daemon session (serve-mix has its own), the job
   path, and the prng, storage and codec layers.  Spans are written to
   DIR/spans.json.  Exits 1 when any gate failed. *)

let workloads = [ "stationary-1m"; "pile-16k"; "serve-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref ".bench_run" and rbb = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measurement budget");
      ("--trace", Arg.Set_int trace, " 1 for the traced run");
      ("--work", Arg.Set_string work, " scratch directory");
      ("--rbb", Arg.Set_string rbb, " the rbb executable (serve-mix)");
      ("--out", Arg.Set_string out, " raw record path");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rbbbench.exe --workload W --seed N --seconds S --trace 0|1 --out FILE";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("rbbbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !out = "" then begin
    prerr_endline "rbbbench: --out is required";
    exit 2
  end;
  let traced = !trace = 1 in
  let sections = if traced then [ false; true ] else [ false ] in
  Measure.mkdir_p !work;
  (match !workload with
  | "stationary-1m" -> Wl_stationary.run ~seed:!seed ~seconds:!seconds ~sections
  | "pile-16k" -> Wl_pile.run ~seed:!seed ~seconds:!seconds ~sections
  | _ -> Wl_serve.run ~rbb:!rbb ~work:!work ~seed:!seed ~seconds:!seconds ~sections);
  if traced then begin
    Span.set_enabled true;
    if !workload <> "serve-mix" then Wl_serve.probe ~rbb:!rbb ~work:!work ~seed:!seed;
    Wl_serve.job_layers ~work:!work;
    Layers.micro ~seed:!seed ~dir:!work;
    Span.write ~path:(Filename.concat !work "spans.json")
  end;
  Record.write ~path:!out ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced;
  exit (if Record.all_gates_ok () then 0 else 1)
