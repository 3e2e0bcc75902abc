(** stop_go: the four targets run a hot loop.  A breakpoint on the
    loop's first line carries a nub-side condition that holds every 64th
    trap; two more lines have breakpoints the client toggles.  One step
    continues to the next stop, reads [stage] (which names the iteration
    and the line), assigns [poke] and reads it back, and toggles a seeded
    line.  A program that runs to its exit is checked and relaunched. *)

open Ldb_machine
open Harness
module Loop = Programs.Loop
module Eval = Ldb_exprserver.Eval

let iters () = if !Harness.smoke then 128 else 4096

type target = {
  built : Ldb_link.Link.image * string;
  image : Ldb.image;
  sess : Eval.session;
  mutable proc : Host.process;
  mutable tg : Ldb.target;
  mutable pos : int * int;  (** (iteration, line) of the last stop *)
  planted : bool array;  (** by line *)
  addrs : int list array;  (** stopping points planted on each line *)
  mutable poke : int;
  mutable suppressed : int;
}

(** Plant the conditional breakpoint of a fresh session. *)
let arm (h : Harness.t) (d : Ldb.t) (t : target) =
  let tg = t.tg in
  let addrs = cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.break_line d tg ~line:Loop.lines.(0))) in
  List.iter
    (fun addr ->
      let site =
        cmd ~tg h Modify (fun () ->
            match
              Harness.exprserver h (fun () ->
                  Eval.compile_condition d tg t.sess ~addr Loop.condition)
            with
            | Ok prog -> ldb (fun () -> Ldb.set_condition d tg ~addr ~text:Loop.condition prog)
            | Error _ -> raise (Mismatch "stop_go: the loop condition did not compile"))
      in
      check "stop_go: the condition runs on the nub" (site = Ok `Nub))
    addrs;
  t.addrs.(0) <- addrs;
  Array.fill t.planted 0 3 false;
  t.planted.(0) <- true;
  t.pos <- (-1, 2);
  t.poke <- 0;
  t.suppressed <- 0

let step (h : Harness.t) (d : Ldb.t) rng (t : target) =
  let tg = t.tg in
  let st = cmd ~tg h Resume (fun () -> ldb (fun () -> Ldb.continue_ d tg)) in
  match Loop.next_stop ~iters:(iters ()) ~planted:t.planted t.pos with
  | None ->
      check "stop_go: expected an exit" (st = Ok (Ldb.Exited 0));
      expect_str "stop_go output" ~want:(Loop.output ~iters:(iters ()) ~poke:t.poke) (Host.output t.proc);
      let proc, tg = relaunch h d ~image:t.image ~name:"loop" t.built tg in
      t.proc <- proc;
      t.tg <- tg;
      arm h d t
  | Some pos ->
      check "stop_go: expected a stop" (stopped st);
      t.pos <- pos;
      let sup = Harness.suppressed tg in
      Span.count "stops" 1;
      Span.count "bpcode.suppressed" (sup - t.suppressed);
      t.suppressed <- sup;
      let read var = cmd ~tg h Inspect (fun () -> ldb (fun () -> Ldb.read_int_var d tg (Ldb.top_frame d tg) var)) in
      expect_int "stage" ~want:(Loop.stage_at pos) (read "stage");
      let v = Random.State.int rng 10_000 in
      let assigned = cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.assign_int d tg (Ldb.top_frame d tg) "poke" v)) in
      check "assign poke" (assigned = Ok ());
      t.poke <- v;
      expect_int "poke read back" ~want:v (read "poke");
      let l = 1 + Random.State.int rng 2 in
      if t.planted.(l) then
        cmd ~tg h Modify (fun () -> ldb (fun () -> List.iter (fun addr -> Ldb.clear_breakpoint tg ~addr) t.addrs.(l)))
      else t.addrs.(l) <- cmd ~tg h Modify (fun () -> ldb (fun () -> Ldb.break_line d tg ~line:Loop.lines.(l)));
      t.planted.(l) <- not t.planted.(l)

let setup (h : Harness.t) ~(seed : int) : world =
  let rng = Random.State.make [| seed |] in
  let d = Ldb.create () in
  let targets =
    List.map
      (fun arch ->
        let built, image, proc, tg =
          first_session h d ~name:"loop" ~arch (Loop.sources ~iters:(iters ()))
        in
        let t =
          { built; image; sess = Eval.start ~arch; proc; tg; pos = (-1, 2);
            planted = Array.make 3 false; addrs = Array.make 3 []; poke = 0; suppressed = 0 }
        in
        arm h d t;
        t)
      Arch.all
  in
  round_robin d ~warm:4 (Array.of_list targets) (step h d rng)
