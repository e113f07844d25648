# Exercises every translator path the CLI golden pins: data, loads and
# stores, a call and return, software multiply, divide and remainder,
# wide constants, a bitwise op (narrowed, so -diag reports it) and
# backward and forward branches.
.equ N, 5
.data
vals:	.word 7, -3, 12, 4, -9
out:	.word 0
.text
	la   s0, vals
	li   s1, N
	li   a0, 0
	li   t3, 1234
loop:
	lw   t0, 0(s0)
	mul  t1, t0, t0
	add  a0, a0, t1
	addi s0, s0, 4
	addi s1, s1, -1
	bnez s1, loop
	div  t1, a0, t3
	rem  t2, a0, t3
	jal  ra, scale
	andi t2, t2, 6
	add  a0, a0, t2
	la   t4, out
	sw   a0, 0(t4)
	blt  a0, zero, done
	addi a0, a0, -100
done:
	ebreak
scale:
	slli t1, t1, 2
	sub  a0, a0, t1
	ret
