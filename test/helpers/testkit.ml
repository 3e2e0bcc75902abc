(** Shared helpers for the test suites: canned programs, debug-session
    construction, and qcheck generators. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host

let fib_c = {|
void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}

int main(void)
{
    fib(10);
    return 0;
}
|}

(** Build and run a program to completion, returning status and output. *)
let run_program ~arch sources =
  let img, _ = Ldb_link.Driver.build ~arch sources in
  let proc = Ldb_link.Link.load img in
  let status = Proc.run proc in
  (status, Proc.output proc)

(** Expect a clean exit and return (status, stdout). *)
let run_ok ~arch sources =
  match run_program ~arch sources with
  | Proc.Exited n, out -> (n, out)
  | Proc.Stopped (s, code), out ->
      Alcotest.failf "program stopped with %s (code %#x), output %S" (Signal.name s) code out
  | Proc.Running, out -> Alcotest.failf "program ran out of fuel, output %S" out

(** The same program must behave identically on every architecture. *)
let run_all_archs sources ~expect_status ~expect_out =
  List.iter
    (fun arch ->
      let st, out = run_ok ~arch sources in
      Alcotest.(check int) (Arch.name arch ^ " status") expect_status st;
      Alcotest.(check string) (Arch.name arch ^ " output") expect_out out)
    Arch.all

type session = {
  d : Ldb.t;
  tg : Ldb.target;
  proc : Host.process;
}

(** A connected, paused debug session for [sources]. *)
let debug_session ?debug ?defer ?compress ~arch sources : session =
  let d = Ldb.create () in
  let proc, tg =
    Host.spawn d ?debug ?defer ?compress ~arch ~name:(Arch.name arch) sources
  in
  { d; tg; proc }

(** Unwrap a run/step result; a [`Dead_process] error fails the test. *)
let ok : (Ldb.state, Ldb.dead) result -> Ldb.state = function
  | Ok st -> st
  | Error (`Dead_process m) -> Alcotest.failf "dead process: %s" m

let ok_unit : (unit, Ldb.dead) result -> unit = function
  | Ok () -> ()
  | Error (`Dead_process m) -> Alcotest.failf "dead process: %s" m

(** Continue until the nth stop (1 = first). *)
let continue_n (s : session) n =
  let rec go k last =
    if k = 0 then last
    else
      match ok (Ldb.continue_ s.d s.tg) with
      | Ldb.Stopped _ as st -> go (k - 1) st
      | st -> st
  in
  go n (Ldb.Running)

let top (s : session) = Ldb.top_frame s.d s.tg

let arch_testable = Alcotest.testable Arch.pp Arch.equal

(** CPU seconds [f ()] takes. *)
let cpu_time f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

(** Timing gates: the median, over 7 interleaved runs, of the seconds
    [slow ()] reports divided by the seconds [fast ()] reports.  Both paths
    run moments apart on the same machine, and the median shrugs off the
    odd run a collection or a busy neighbour slowed down. *)
let median_ratio ~slow ~fast () =
  let reps = 7 in
  let ratios =
    Array.init reps (fun _ ->
        let f = fast () in
        let s = slow () in
        s /. Float.max f 1e-6)
  in
  Array.sort compare ratios;
  ratios.(reps / 2)

(** An instruction naming a register [arch] does not have: its encoding
    has room for the field, the register file has no such register. *)
let bad_register_insn : Arch.t -> Insn.t = function
  | Mips | Sparc -> Insn.Fmov (20, 0) (* 5-bit field, 16 float registers *)
  | M68k -> Insn.Fmov (9, 0) (* 4-bit field, 8 float registers *)
  | Vax -> Insn.Mov (200, 1) (* a register byte, 16 registers *)

(** qcheck: arbitrary abstract instruction (well-formed for [arch]). *)
let gen_insn (arch : Arch.t) : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let nregs = Arch.nregs arch and nfregs = Arch.nfregs arch in
  let reg = int_bound (nregs - 1) in
  let freg = int_bound (nfregs - 1) in
  let imm = map Int32.of_int (int_range (-1000000) 1000000) in
  let aluop =
    oneofl [ Insn.Add; Sub; Mul; Div; Rem; Divu; Remu; And; Or; Xor; Shl; Shr; Slt; Sltu ]
  in
  let cond = oneofl [ Insn.Eq; Ne; Lt; Le; Gt; Ge ] in
  let size = oneofl [ Insn.S8; S16; S32 ] in
  let fsize =
    if Arch.max_float_bits arch = 80 then oneofl [ Insn.F32; F64; F80 ]
    else oneofl [ Insn.F32; F64 ]
  in
  oneof
    [
      map2 (fun r v -> Insn.Li (r, v)) reg imm;
      map2 (fun a b -> Insn.Mov (a, b)) reg reg;
      (aluop >>= fun op -> map3 (fun a b c -> Insn.Alu (op, a, b, c)) reg reg reg);
      (aluop >>= fun op -> map3 (fun a b v -> Insn.Alui (op, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Load (sz, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Loadu (sz, a, b, v)) reg reg imm);
      (size >>= fun sz -> map3 (fun a b v -> Insn.Store (sz, a, b, v)) reg reg imm);
      (fsize >>= fun sz -> map3 (fun a b v -> Insn.Fload (sz, a, b, v)) freg reg imm);
      (fsize >>= fun sz -> map3 (fun a b v -> Insn.Fstore (sz, a, b, v)) freg reg imm);
      map3 (fun a b c -> Insn.Falu (Insn.Fadd, a, b, c)) freg freg freg;
      (cond >>= fun c -> map3 (fun r a b -> Insn.Fcmp (c, r, a, b)) reg freg freg);
      map2 (fun a b -> Insn.Fmov (a, b)) freg freg;
      map2 (fun f r -> Insn.Cvtif (f, r)) freg reg;
      map2 (fun r f -> Insn.Cvtfi (r, f)) reg freg;
      (cond >>= fun c ->
       map3 (fun a b v -> Insn.Br (c, a, b, Int32.logand v 0xffffffl)) reg reg imm);
      map (fun v -> Insn.Jmp (Int32.logand v 0xffffffl)) imm;
      map (fun r -> Insn.Jr r) reg;
      map (fun v -> Insn.Call (Int32.logand v 0xffffffl)) imm;
      map (fun r -> Insn.Callr r) reg;
      return Insn.Ret;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      return Insn.Nop;
      return Insn.Break;
      map (fun n -> Insn.Syscall (n land 0xf)) (int_bound 15);
    ]

let qtest name ?(count = 200) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(** qcheck: arbitrary well-formed core dump — shared by the post-mortem
    and replay suites (a replay checkpoint embeds a core). *)
let core_gen : Core.t QCheck.Gen.t =
  let module Crc32 = Ldb_util.Crc32 in
  let open QCheck.Gen in
    oneofl Arch.all >>= fun arch ->
    let t = Target.of_arch arch in
    int_bound 31 >>= fun signal ->
    int_bound 0xffffff >>= fun code ->
    int_bound 0xffffff >>= fun pc ->
    int_bound 0xffffff >>= fun ctx_addr ->
    array_repeat (Target.nregs t)
      (map Int32.of_int (int_range (-0x40000000) 0x3fffffff))
    >>= fun regs ->
    oneofl [ 8; 10 ] >>= fun freg_bytes ->
    array_repeat (Target.nfregs t)
      (string_size ~gen:char (return freg_bytes))
    >>= fun fregs ->
    list_size (int_bound 4)
      ( oneofl [ "code"; "data"; "ctx"; "stack" ] >>= fun name ->
        int_bound 0x3ffff0 >>= fun base ->
        string_size ~gen:char (int_range 1 64) >>= fun bytes ->
        return
          { Core.sec_name = name; sec_base = base; sec_bytes = bytes;
            sec_crc = Crc32.string bytes; sec_ok = true } )
    >>= fun sections ->
    return
  { Core.co_arch = arch; co_signal = signal; co_code = code; co_pc = pc;
    co_ctx_addr = ctx_addr; co_regs = regs; co_freg_bytes = freg_bytes;
    co_fregs = fregs; co_sections = sections }

let gen_core : Core.t QCheck.arbitrary = QCheck.make core_gen

(* --- byte codec ------------------------------------------------------------- *)

(** A bare frame header for [codec] whose fields say whatever the test
    wants: the way to forge a lying length or checksum. *)
let frame_header (codec : Ldb_util.Bytecodec.framing) ~seq ~len ~crc =
  let b = Buffer.create Ldb_util.Bytecodec.header_len in
  Buffer.add_char b codec.magic0;
  Buffer.add_char b codec.magic1;
  List.iter (Ldb_util.Bytecodec.add_u32 b) [ seq; len; crc ];
  Buffer.contents b

(** Lower-case hex of [s], for pinning encodings to goldens. *)
let hex (s : string) : string =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(** Pin each encoding to the hex it had when the layout was fixed.  A
    round trip cannot catch a layout change that encoder and decoder make
    together; a golden can. *)
let check_goldens (cases : (string * string * string) list) =
  List.iter (fun (name, golden, encoded) -> Alcotest.(check string) name golden (hex encoded)) cases
