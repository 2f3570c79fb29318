// Package isa defines the MIPS-I-like instruction set used by the
// reproduction: opcodes, registers, instructions, and the def/use metadata
// needed by the delay-slot schedulers. The MIPS-I field widths are checked
// where programs are built (program.Validate and Program.Layout).
//
// The paper's experiments were driven by MIPS R2000 object code. We model
// the subset of the R2000 ISA that matters for cache and pipeline
// behaviour: loads and stores (one addressing mode: register plus
// 16-bit displacement), three-register ALU ops, immediates, conditional
// branches, direct jumps and calls, register-indirect jumps, and syscalls.
// Floating-point arithmetic is represented by FPU ops that occupy the same
// pipeline slots as integer ops (the paper's CPU issues one instruction per
// cycle regardless).
package isa

import "fmt"

// Op identifies an operation (mnemonic).
type Op uint8

// The instruction set. The ordering groups ops by class but carries no
// semantic meaning; use Class for classification.
const (
	NOP Op = iota

	// Loads (register + displacement addressing).
	LW   // load word
	LB   // load byte
	LBU  // load byte unsigned
	LH   // load halfword
	LHU  // load halfword unsigned
	LWC1 // load word to FP register

	// Stores.
	SW   // store word
	SB   // store byte
	SH   // store halfword
	SWC1 // store word from FP register

	// Integer ALU, three-register.
	ADDU
	SUBU
	AND
	OR
	XOR
	NOR
	SLT
	SLTU

	// Integer ALU, immediate.
	ADDIU
	ANDI
	ORI
	XORI
	SLTI
	SLTIU
	LUI

	// Shifts.
	SLL
	SRL
	SRA
	SLLV
	SRLV
	SRAV

	// Multiply/divide unit.
	MULT
	MULTU
	DIV
	DIVU
	MFHI
	MFLO
	MTHI
	MTLO

	// Floating point (single/double); these use FP registers.
	ADDS
	SUBS
	MULS
	DIVS
	ADDD
	SUBD
	MULD
	DIVD
	MOVS
	CVTDW
	CVTWD

	// Conditional branches (one delay slot in base MIPS).
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ

	// Direct jumps and calls.
	J
	JAL

	// Register-indirect jumps.
	JR
	JALR

	// Operating system entry.
	SYSCALL

	numOps
)

// Class partitions ops by their pipeline behaviour.
type Class uint8

const (
	ClassNop   Class = iota
	ClassALU         // integer/FP computation, single issue slot
	ClassLoad        // reads the data cache
	ClassStore       // writes the data cache
	ClassBranch
	ClassJump    // unconditional direct jump or call
	ClassJumpReg // register-indirect jump (target unknown at compile time)
	ClassSyscall
)

// opInfo carries the static properties of each op.
type opInfo struct {
	name  string
	class Class
}

var opTable = [numOps]opInfo{
	NOP:  {"nop", ClassNop},
	LW:   {"lw", ClassLoad},
	LB:   {"lb", ClassLoad},
	LBU:  {"lbu", ClassLoad},
	LH:   {"lh", ClassLoad},
	LHU:  {"lhu", ClassLoad},
	LWC1: {"lwc1", ClassLoad},
	SW:   {"sw", ClassStore},
	SB:   {"sb", ClassStore},
	SH:   {"sh", ClassStore},
	SWC1: {"swc1", ClassStore},

	ADDU:  {"addu", ClassALU},
	SUBU:  {"subu", ClassALU},
	AND:   {"and", ClassALU},
	OR:    {"or", ClassALU},
	XOR:   {"xor", ClassALU},
	NOR:   {"nor", ClassALU},
	SLT:   {"slt", ClassALU},
	SLTU:  {"sltu", ClassALU},
	ADDIU: {"addiu", ClassALU},
	ANDI:  {"andi", ClassALU},
	ORI:   {"ori", ClassALU},
	XORI:  {"xori", ClassALU},
	SLTI:  {"slti", ClassALU},
	SLTIU: {"sltiu", ClassALU},
	LUI:   {"lui", ClassALU},
	SLL:   {"sll", ClassALU},
	SRL:   {"srl", ClassALU},
	SRA:   {"sra", ClassALU},
	SLLV:  {"sllv", ClassALU},
	SRLV:  {"srlv", ClassALU},
	SRAV:  {"srav", ClassALU},
	MULT:  {"mult", ClassALU},
	MULTU: {"multu", ClassALU},
	DIV:   {"div", ClassALU},
	DIVU:  {"divu", ClassALU},
	MFHI:  {"mfhi", ClassALU},
	MFLO:  {"mflo", ClassALU},
	MTHI:  {"mthi", ClassALU},
	MTLO:  {"mtlo", ClassALU},
	ADDS:  {"add.s", ClassALU},
	SUBS:  {"sub.s", ClassALU},
	MULS:  {"mul.s", ClassALU},
	DIVS:  {"div.s", ClassALU},
	ADDD:  {"add.d", ClassALU},
	SUBD:  {"sub.d", ClassALU},
	MULD:  {"mul.d", ClassALU},
	DIVD:  {"div.d", ClassALU},
	MOVS:  {"mov.s", ClassALU},
	CVTDW: {"cvt.d.w", ClassALU},
	CVTWD: {"cvt.w.d", ClassALU},

	BEQ:  {"beq", ClassBranch},
	BNE:  {"bne", ClassBranch},
	BLEZ: {"blez", ClassBranch},
	BGTZ: {"bgtz", ClassBranch},
	BLTZ: {"bltz", ClassBranch},
	BGEZ: {"bgez", ClassBranch},

	J:   {"j", ClassJump},
	JAL: {"jal", ClassJump},

	JR:   {"jr", ClassJumpReg},
	JALR: {"jalr", ClassJumpReg},

	SYSCALL: {"syscall", ClassSyscall},
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) >= len(opTable) || opTable[o].name == "" {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Class returns the pipeline class of the op.
func (o Op) Class() Class {
	if int(o) >= len(opTable) {
		return ClassNop
	}
	return opTable[o].class
}

// Valid reports whether o names a defined op.
func (o Op) Valid() bool {
	return o < numOps && (o == NOP || opTable[o].name != "")
}

// IsCTI reports whether the op is a control transfer instruction: a
// conditional branch, a direct jump/call, or a register-indirect jump.
// Syscalls also transfer control but the paper accounts for them
// separately, so they are not CTIs here.
func (o Op) IsCTI() bool {
	switch o.Class() {
	case ClassBranch, ClassJump, ClassJumpReg:
		return true
	}
	return false
}

// IsLoad reports whether the op reads the data cache.
func (o Op) IsLoad() bool { return o.Class() == ClassLoad }

// IsStore reports whether the op writes the data cache.
func (o Op) IsStore() bool { return o.Class() == ClassStore }

// IsMem reports whether the op accesses the data cache.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassALU:
		return "alu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassJumpReg:
		return "jumpreg"
	case ClassSyscall:
		return "syscall"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}
