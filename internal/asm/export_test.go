package asm

// Parse exposes the parser to the external fuzz test.
var Parse = parse
