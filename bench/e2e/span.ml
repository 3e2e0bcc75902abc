(** The benchmark-side tracer.

    Spans are recorded around every call the benchmark makes into a
    layer, and around the nub pump closures the benchmark installs on its
    own channels.  Each span has a per-command id, its own id and its
    parent's, so a command's spans form a tree; a layer's self time is
    its spans' durations minus the part their child spans cover.

    Self times and call counts are folded into per-layer totals as spans
    close, so a long traced run needs no more memory than a short one.
    The first {!max_kept} spans are also kept verbatim for {!dump}.

    Counters ({!count}) add up work done at the same boundaries —
    requests by kind, bytes, instructions, forced units — but only while
    the counting window is open, so that count metrics cover the same
    seeded prefix of commands in every run and repeat exactly.

    With tracing off every entry point costs one branch. *)

type layer = Bench | Ldb | Exprserver | Replay | Host | Swire | Evloop | Nub

let layers = [ Bench; Ldb; Exprserver; Replay; Host; Swire; Evloop; Nub ]

let layer_name = function
  | Bench -> "bench"
  | Ldb -> "ldb"
  | Exprserver -> "exprserver"
  | Replay -> "replay"
  | Host -> "host"
  | Swire -> "swire"
  | Evloop -> "evloop"
  | Nub -> "nub"

let index = function
  | Bench -> 0
  | Ldb -> 1
  | Exprserver -> 2
  | Replay -> 3
  | Host -> 4
  | Swire -> 5
  | Evloop -> 6
  | Nub -> 7

let n_layers = List.length layers

(** Monotonic nanoseconds. *)
let now () : int = Int64.to_int (Monotonic_clock.now ())

let on = ref false
let counting = ref false

(* --- per-layer totals ----------------------------------------------------- *)

let self_ns = Array.make n_layers 0
let calls = Array.make n_layers 0

(* --- the open-span stack -------------------------------------------------- *)

let max_depth = 64
let st_layer = Array.make max_depth Bench
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let next_id = ref 0
let cmd_id = ref 0

(* --- kept spans, for the JSON-lines dump ---------------------------------- *)

let max_kept = 200_000

type kept = { k_cmd : int; k_id : int; k_parent : int; k_layer : layer; k_start : int; k_stop : int }

let kept : kept array ref = ref [||] (* allocated by {!reset} *)
let n_kept = ref 0

let enter (l : layer) =
  let d = !depth in
  if d >= max_depth then failwith "Span.enter: spans nested too deep";
  incr next_id;
  st_layer.(d) <- l;
  st_start.(d) <- now ();
  st_child.(d) <- 0;
  st_id.(d) <- !next_id;
  depth := d + 1

let leave () =
  let stop = now () in
  let d = !depth - 1 in
  depth := d;
  let dur = stop - st_start.(d) in
  let i = index st_layer.(d) in
  self_ns.(i) <- self_ns.(i) + dur - st_child.(d);
  calls.(i) <- calls.(i) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if !n_kept < Array.length !kept then begin
    !kept.(!n_kept) <-
      { k_cmd = !cmd_id; k_id = st_id.(d); k_parent = (if d > 0 then st_id.(d - 1) else 0);
        k_layer = st_layer.(d); k_start = st_start.(d); k_stop = stop };
    incr n_kept
  end

(** Run [f] inside a span of layer [l]. *)
let span (l : layer) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    enter l;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(** Run one benchmark command: a fresh command id and a root span whose
    self time is the benchmark's own glue. *)
let command (f : unit -> 'a) : 'a =
  incr cmd_id;
  span Bench f

(* --- counters --------------------------------------------------------------- *)

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32

let count (name : string) (n : int) =
  if !counting then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace counters name (ref n)

let counter (name : string) : int =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

(** Forget everything recorded; the first call also allocates the buffer
    of kept spans, so untraced runs never carry it. *)
let reset () =
  Array.fill self_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  depth := 0;
  if Array.length !kept = 0 then
    kept :=
      Array.make max_kept
        { k_cmd = 0; k_id = 0; k_parent = 0; k_layer = Bench; k_start = 0; k_stop = 0 };
  n_kept := 0;
  Hashtbl.reset counters

(* --- output ------------------------------------------------------------------ *)

(** Write the kept spans as JSON lines: one object per span. *)
let dump (path : string) =
  let oc = open_out path in
  for i = 0 to !n_kept - 1 do
    let k = !kept.(i) in
    Printf.fprintf oc
      "{\"cmd\": %d, \"id\": %d, \"parent\": %d, \"layer\": \"%s\", \"start_ns\": %d, \"dur_ns\": %d}\n"
      k.k_cmd k.k_id k.k_parent
      (layer_name k.k_layer)
      k.k_start (k.k_stop - k.k_start)
  done;
  close_out oc

(** Self time of a layer, in nanoseconds, over the traced commands. *)
let self (l : layer) = self_ns.(index l)

let total_self () = Array.fold_left ( + ) 0 self_ns

(** The self-time table: one row per layer that ran. *)
let table ~(commands : int) : string =
  let b = Buffer.create 512 in
  let total = max 1 (total_self ()) in
  Buffer.add_string b
    (Printf.sprintf "%-12s %12s %10s %12s %7s\n" "layer" "self_ms" "calls" "us/cmd" "share");
  List.iter
    (fun l ->
      let i = index l in
      if calls.(i) > 0 then
        Buffer.add_string b
          (Printf.sprintf "%-12s %12.1f %10d %12.2f %6.1f%%\n" (layer_name l)
             (float self_ns.(i) /. 1e6)
             calls.(i)
             (float self_ns.(i) /. 1e3 /. float (max 1 commands))
             (100. *. float self_ns.(i) /. float total)))
    layers;
  Buffer.contents b
