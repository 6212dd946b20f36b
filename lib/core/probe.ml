type t = {
  enabled : bool;
  now : unit -> int64;
  add : string -> int -> unit;
  timer_add : string -> int64 -> unit;
  latency : int64 -> unit;
  tracing : bool;
  on_round : round:int -> max_load:int -> empty_bins:int -> balls:int -> unit;
  on_span : name:string -> worker:int -> round:int -> t0:int64 -> t1:int64 -> unit;
}

let noop =
  {
    enabled = false;
    now = (fun () -> 0L);
    add = (fun _ _ -> ());
    timer_add = (fun _ _ -> ());
    latency = (fun _ -> ());
    tracing = false;
    on_round = (fun ~round:_ ~max_load:_ ~empty_bins:_ ~balls:_ -> ());
    on_span = (fun ~name:_ ~worker:_ ~round:_ ~t0:_ ~t1:_ -> ());
  }

let live p = p.enabled || p.tracing

let compose a b =
  if not (live b) then a
  else if not (live a) then b
  else
    {
      enabled = a.enabled || b.enabled;
      now = a.now;
      add =
        (fun name k ->
          a.add name k;
          b.add name k);
      timer_add =
        (fun name ns ->
          a.timer_add name ns;
          b.timer_add name ns);
      latency =
        (fun ns ->
          a.latency ns;
          b.latency ns);
      tracing = a.tracing || b.tracing;
      on_round =
        (fun ~round ~max_load ~empty_bins ~balls ->
          a.on_round ~round ~max_load ~empty_bins ~balls;
          b.on_round ~round ~max_load ~empty_bins ~balls);
      on_span =
        (fun ~name ~worker ~round ~t0 ~t1 ->
          a.on_span ~name ~worker ~round ~t0 ~t1;
          b.on_span ~name ~worker ~round ~t0 ~t1);
    }

let timed p name f =
  if live p then begin
    let t0 = p.now () in
    f ();
    p.timer_add name (Int64.sub (p.now ()) t0)
  end
  else f ()
