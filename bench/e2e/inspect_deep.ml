(** inspect_deep: four sessions, one per target, over the eight-unit
    program that recurses 22 frames deep.  One step plants a breakpoint
    on a seeded unit's function, continues to it, runs the fixed inspect
    mix — backtrace, where, four prints across frames, two reads, one
    expression — and clears the breakpoint.  A program that runs to its
    exit is checked and relaunched. *)

open Ldb_machine
open Harness
module Deep = Programs.Deep
module Eval = Ldb_exprserver.Eval

let rounds () = if !Harness.smoke then 2 else 40

type target = {
  built : Ldb_link.Link.image * string;
  image : Ldb.image;
  sess : Eval.session;
  mutable proc : Host.process;
  mutable tg : Ldb.target;
  mutable pos : int * int;  (** (round, depth) of the last stop *)
}

let fname k = Printf.sprintf "d%d" k

(** The variable a print in frame [f] of a stop at depth [j] shows, and
    its value: [n] at the top, [local] in the callers, [r] in main. *)
let print_target ~r ~j f =
  if f = 0 then ("n", Deep.n_at j)
  else if f <= j then ("local", snd (Deep.frame ~r ~j:(j - f)))
  else ("r", r)

let inspect (h : Harness.t) (d : Ldb.t) rng (t : target) ~r ~j =
  let tg = t.tg in
  let frames, names =
    counting_backtrace (fun () ->
        cmd ~tg h Inspect (fun () ->
            ldb (fun () ->
                let frs = Ldb.backtrace d tg in
                (Array.of_list frs, List.map (Ldb.frame_function d tg) frs))))
  in
  let want = List.init (j + 1) (fun i -> fname ((j - i) mod Deep.units)) @ [ "main" ] in
  check
    (Printf.sprintf "backtrace at depth %d: %s" j (String.concat "," names))
    (names = want);
  let w = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.where d tg)) in
  check ("where: " ^ w) (starts_with ~prefix:(Printf.sprintf "SIGTRAP in %s line" (fname (j mod Deep.units))) w);
  for _ = 1 to 4 do
    let f = Random.State.int rng (j + 2) in
    let var, want = print_target ~r ~j f in
    let got = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.print_value d tg frames.(f) var)) in
    expect_str (Printf.sprintf "print %s in frame %d" var f) ~want:(string_of_int want) got
  done;
  let acc, _ = Deep.frame ~r ~j in
  List.iter
    (fun (var, want) ->
      let got = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.read_int_var d tg (Ldb.top_frame d tg) var)) in
      expect_int ("read " ^ var) ~want got)
    [ ("n", Deep.n_at j); ("acc", acc) ];
  let v, _ =
    cmd ~tg h Inspect (fun () ->
        Harness.exprserver h (fun () ->
            Eval.evaluate d tg (Ldb.top_frame d tg) t.sess "acc * 3 + n"))
  in
  expect_str "eval acc * 3 + n" ~want:(string_of_int ((acc * 3) + Deep.n_at j)) v

(** One stop on one target: plant, continue, inspect, clear — or, when
    the program has no call of the seeded function left, run it to its
    exit, check its output, and relaunch. *)
let step (h : Harness.t) (d : Ldb.t) rng (t : target) =
  let k = Random.State.int rng Deep.units in
  let tg = t.tg in
  let addr = cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.break_function d tg (fname k))) in
  let st = cmd ~tg h Resume (fun () -> ldb (fun () -> Ldb.continue_ d tg)) in
  match Deep.next_call ~rounds:(rounds ()) ~k t.pos with
  | None ->
      check "deep: expected an exit" (st = Ok (Ldb.Exited 0));
      expect_str "deep output" ~want:(Deep.output ~rounds:(rounds ())) (Host.output t.proc);
      let proc, tg = relaunch h d ~image:t.image ~name:"deep" t.built tg in
      t.proc <- proc;
      t.tg <- tg;
      t.pos <- (0, -1)
  | Some (r, j) ->
      check (Printf.sprintf "deep: expected a stop at depth %d" j) (stopped st);
      Span.count "stops" 1;
      t.pos <- (r, j);
      inspect h d rng t ~r ~j;
      cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.clear_breakpoint tg ~addr))

let setup (h : Harness.t) ~(seed : int) : world =
  let rng = Random.State.make [| seed |] in
  let d = Ldb.create () in
  let targets =
    List.map
      (fun arch ->
        let built, image, proc, tg =
          first_session h d ~name:"deep" ~arch (Deep.sources ~rounds:(rounds ()))
        in
        { built; image; sess = Eval.start ~arch; proc; tg; pos = (0, -1) })
      Arch.all
  in
  (* warm-up: two stops on every target fill the per-target caches *)
  round_robin d ~warm:2 (Array.of_list targets) (step h d rng)
