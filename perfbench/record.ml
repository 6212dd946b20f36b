(* The raw record of one benchmark run: named sample series, gate
   outcomes and operation counts, written as JSON for run.py to reduce.
   Measurement happens here in OCaml; medians, percentiles, derived
   metrics and the output contract live in stats.py / run.py. *)

type series = (string, float list ref) Hashtbl.t

type section = { traced : bool; samples : series }

let sections : section list ref = ref []
let layer : series = Hashtbl.create 64
let facts : (string * float) list ref = ref []
let gates : (string * bool * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let push (tbl : series) name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl name (ref [ v ])

let begin_section ~traced =
  sections := { traced; samples = Hashtbl.create 16 } :: !sections

(* End-to-end sample of the current section, or of the section with
   the given tracing state. *)
let sample ?traced name v =
  let target =
    match traced with
    | None -> ( match !sections with s :: _ -> Some s | [] -> None)
    | Some t -> List.find_opt (fun s -> s.traced = t) !sections
  in
  match target with
  | Some s -> push s.samples name v
  | None -> invalid_arg "Record.sample: no open section"

let layer_sample name v = push layer name v
let fact name v = facts := (name, v) :: !facts

let gate name ok detail =
  gates := (name, ok, detail) :: !gates;
  if not ok then Printf.eprintf "GATE FAILED %s: %s\n%!" name detail

let all_gates_ok () = List.for_all (fun (_, ok, _) -> ok) !gates
let attempt n = attempted := !attempted + n
let fail n = failed := !failed + n

(* JSON output ---------------------------------------------------------- *)

let json_float b v =
  if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else Buffer.add_string b "null"

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_obj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char b ',';
      json_string b k;
      Buffer.add_char b ':';
      emit b)
    fields;
  Buffer.add_char b '}'

let json_series b (tbl : series) =
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  json_obj b
    (List.map
       (fun k ->
         ( k,
           fun b ->
             Buffer.add_char b '[';
             List.iteri
               (fun i v ->
                 if i > 0 then Buffer.add_char b ',';
                 json_float b v)
               (List.rev !(Hashtbl.find tbl k));
             Buffer.add_char b ']' ))
       names)

let write ~path ~workload ~seed ~seconds ~trace =
  let b = Buffer.create 65536 in
  json_obj b
    [
      ("workload", fun b -> json_string b workload);
      ("seed", fun b -> Buffer.add_string b (string_of_int seed));
      ("seconds", fun b -> json_float b seconds);
      ("trace", fun b -> Buffer.add_string b (if trace then "1" else "0"));
      ( "host",
        fun b ->
          json_obj b
            [
              ( "recommended_domain_count",
                fun b ->
                  Buffer.add_string b
                    (string_of_int (Domain.recommended_domain_count ())) );
              ("ocaml_version", fun b -> json_string b Sys.ocaml_version);
              ("word_size", fun b -> Buffer.add_string b (string_of_int Sys.word_size));
            ] );
      ("attempted", fun b -> Buffer.add_string b (string_of_int !attempted));
      ("failed", fun b -> Buffer.add_string b (string_of_int !failed));
      ( "gates",
        fun b ->
          Buffer.add_char b '[';
          List.iteri
            (fun i (name, ok, detail) ->
              if i > 0 then Buffer.add_char b ',';
              json_obj b
                [
                  ("name", fun b -> json_string b name);
                  ("ok", fun b -> Buffer.add_string b (string_of_bool ok));
                  ("detail", fun b -> json_string b detail);
                ])
            (List.rev !gates);
          Buffer.add_char b ']' );
      ( "sections",
        fun b ->
          Buffer.add_char b '[';
          List.iteri
            (fun i s ->
              if i > 0 then Buffer.add_char b ',';
              json_obj b
                [
                  ("traced", fun b -> Buffer.add_string b (string_of_bool s.traced));
                  ("samples", fun b -> json_series b s.samples);
                ])
            (List.rev !sections);
          Buffer.add_char b ']' );
      ("layer", fun b -> json_series b layer);
      ( "facts",
        fun b -> json_obj b (List.rev_map (fun (k, v) -> (k, fun b -> json_float b v)) !facts) );
    ];
  Buffer.add_char b '\n';
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc
